//! Seeded traffic shapes. The same `(workload, seed, scale)` always
//! yields the same records in the same order; the server only ever
//! sees these generated records.

use smb_devtools::{Rng, Xoshiro256pp};
use smb_stream::TraceConfig;

use crate::reference::FRAME_RECORDS;

/// The three traffic shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Heavy-tailed synthetic CAIDA trace (paper §V-F shape).
    CaidaTrace,
    /// A few flows, each with tens of thousands of distinct items.
    HeavyHitters,
    /// Many mid-sized flows whose bitmaps together outgrow L2.
    WideFlows,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::CaidaTrace, Kind::HeavyHitters, Kind::WideFlows];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CaidaTrace => "caida_trace",
            Kind::HeavyHitters => "heavy_hitters",
            Kind::WideFlows => "wide_flows",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// A read-your-writes `QUERY` follows every this-many batches.
    pub fn query_every(self) -> usize {
        match self {
            Kind::CaidaTrace => 8,
            Kind::HeavyHitters | Kind::WideFlows => 64,
        }
    }

    /// Rounds in one end-to-end run. Each round gives one sample of
    /// every timing on a fresh engine. Rounds spread most on the trace,
    /// whose `TOP_K` makes one call per round, and least on
    /// `heavy_hitters`, whose table stays in cache.
    pub fn rounds(self) -> usize {
        match self {
            Kind::CaidaTrace => 10,
            Kind::HeavyHitters => 6,
            Kind::WideFlows => 8,
        }
    }
}

/// Full size for the gated runs; tiny for the self-check tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One record in compact form: a flow index and an item index. The
/// wire form is rendered by [`Workload::flow_key`] and
/// [`Workload::item_bytes`].
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub flow: u32,
    pub item: u32,
}

/// A generated workload: records in arrival order plus the exact
/// distinct count of every flow.
pub struct Workload {
    pub kind: Kind,
    pub records: Vec<Rec>,
    /// Exact distinct items per flow index.
    pub exact: Vec<u32>,
    /// Seed-chosen phase of the read-your-writes query targets.
    pub query_phase: usize,
    key_salt: u32,
    item_salt: u32,
}

/// A bijection on `u32` (odd multiply, xor-shift, odd multiply), so
/// distinct indices always map to distinct keys.
fn mix32(mut x: u32, salt: u32) -> u32 {
    x ^= salt;
    x = x.wrapping_mul(0x9E37_79B1);
    x ^= x >> 15;
    x = x.wrapping_mul(0x85EB_CA77);
    x ^= x >> 13;
    x
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64, scale: Scale) -> Workload {
        // Flow keys and item identities, hence every hash, are the same
        // for every seed, so the deterministic guards (bytes per flow,
        // `rel_error_rms`) measure the code, not the draw: with hashes
        // drawn per seed, `rel_error_rms` moved by about a fifth between
        // seeds on 64 flows and by about an eighth on the trace. The
        // seed picks the interleaving of the uniform workloads and, on
        // every workload, which flows the read-your-writes queries ask
        // for.
        let mut salts = Xoshiro256pp::seed_from_u64(0x5045_5246_4245_4E43);
        let key_salt = salts.next_u64() as u32;
        let item_salt = salts.next_u64() as u32;
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let query_phase = rng.gen_range_usize(0..FRAME_RECORDS);
        let tiny = scale == Scale::Tiny;
        let (records, exact) = match kind {
            Kind::CaidaTrace => {
                // One fixed trace, as the paper replays one capture: the
                // flow-size plan and packet order come from the
                // repository's default trace seed. A per-seed plan would
                // let a few 80k-item flows decide how fast a run ingests.
                let config = TraceConfig {
                    duplication: 15.0,
                    ..TraceConfig::default()
                };
                let config = if tiny {
                    TraceConfig {
                        flows: 2_000,
                        max_cardinality: 4_000,
                        duplication: 4.0,
                        ..config
                    }
                } else {
                    config
                };
                let trace = config.build();
                let records = trace
                    .packets()
                    .map(|p| Rec {
                        flow: p.flow,
                        item: p.item,
                    })
                    .collect();
                (records, trace.ground_truths().to_vec())
            }
            Kind::HeavyHitters => {
                let (flows, distinct, dup) = if tiny { (8, 3_000, 2) } else { (64, 50_000, 3) };
                uniform(&mut rng, flows, distinct, dup)
            }
            Kind::WideFlows => {
                let (flows, distinct, dup) = if tiny {
                    (500, 400, 1)
                } else {
                    (20_000, 400, 1)
                };
                uniform(&mut rng, flows, distinct, dup)
            }
        };
        Workload {
            kind,
            records,
            exact,
            query_phase,
            key_salt,
            item_salt,
        }
    }

    /// The wire flow key of flow index `flow` (an IPv4-sized key).
    pub fn flow_key(&self, flow: u32) -> u64 {
        u64::from(mix32(flow, self.key_salt))
    }

    /// The wire item bytes of a record: (flow key, item) as a real
    /// (destination, source) pair would be.
    pub fn item_bytes(&self, rec: Rec) -> [u8; 8] {
        let mut b = [0u8; 8];
        b[..4].copy_from_slice(&mix32(rec.flow, self.key_salt).to_le_bytes());
        b[4..].copy_from_slice(&mix32(rec.item, self.item_salt).to_le_bytes());
        b
    }

    pub fn flows(&self) -> usize {
        self.exact.len()
    }
}

/// `flows` flows of `distinct` items each, every item sent `dup` times
/// on average. Each step picks a live flow uniformly; a flow's first
/// `distinct` records enumerate its items, the rest repeat uniformly,
/// so the exact count is `distinct` by construction.
fn uniform(rng: &mut Xoshiro256pp, flows: u32, distinct: u32, dup: u32) -> (Vec<Rec>, Vec<u32>) {
    let budget = u64::from(distinct) * u64::from(dup);
    let mut sent = vec![0u64; flows as usize];
    let mut live: Vec<u32> = (0..flows).collect();
    let mut records = Vec::with_capacity((budget * u64::from(flows)) as usize);
    while !live.is_empty() {
        let slot = rng.gen_range_usize(0..live.len());
        let flow = live[slot];
        let seq = sent[flow as usize];
        let item = if seq < u64::from(distinct) {
            seq as u32
        } else {
            rng.gen_range_u64(0..u64::from(distinct)) as u32
        };
        records.push(Rec { flow, item });
        sent[flow as usize] += 1;
        if sent[flow as usize] == budget {
            live.swap_remove(slot);
        }
    }
    (records, vec![distinct; flows as usize])
}
