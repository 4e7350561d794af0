//! Golden result digests for Q1–Q22.
//!
//! The fan-out and late-materialization sweeps compare two runs of the
//! same operators, so a bug inside a shared kernel (hashing, grouping,
//! join matching, expression evaluation) shows on both sides and cancels
//! out. These digests pin the answers themselves: each is an FNV-1a over
//! the result's arity, row count, column types and every value (floats by
//! bit pattern), recorded from a known-good build. Any change to a query
//! answer, down to one ulp of one float, fails here.
//!
//! To re-pin after a deliberate change to the generator or a plan, run
//! `cargo test -p iq-tpch --test golden_digests -- --nocapture` and copy
//! the printed table over `GOLDEN`.

use iq_common::TxnId;
use iq_engine::chunk::{Chunk, Col};
use iq_engine::{MemPageStore, OpExec, WorkMeter};
use iq_tpch::queries::{run_query, Ctx};
use iq_tpch::TpchDb;

const SF: f64 = 0.01;
const SEEDS: [u64; 2] = [20210620, 7];

/// `GOLDEN[s][q - 1]` is the digest of query `q` over seed `SEEDS[s]`.
const GOLDEN: [[u64; 22]; 2] = [
    [
        0xc2e874b9e5321238,
        0x197430189a2756b2,
        0x58471be932e3a421,
        0x60cff7710c6b8389,
        0x585813689f7905f2,
        0x757f538722be65ec,
        0x403865740f1b33a7,
        0xd96ce0e172523182,
        0x28688ebcc3dce7d5,
        0x31b0b093cb92f30f,
        0xfb058c2f8d49b9ce,
        0x0bcb7e8a7cd895a3,
        0x0b39105b87c9cf19,
        0xe59c44876fb540ec,
        0x1edfbc6493aba20d,
        0x8d56631a48bd9c59,
        0x31427c8621446145,
        0xec50274d48ebbd1a,
        0x31427c8621446145,
        0xbf47fd73fafffb2a,
        0xa9c97fa1ec57d540,
        0xaf486366ecd8b336,
    ],
    [
        0x8ee476de19b480f2,
        0xa2324ee8c97877b8,
        0x0195eb0c0db21200,
        0xeca9ab7c651a918c,
        0x5a2c433dd1880435,
        0xacc488b5956da6a2,
        0xd607fae3f9d87dc1,
        0x1fa8e6f467854ada,
        0x0ae0cdbccf798247,
        0xf681e1737755d75a,
        0x245b8b743779f56b,
        0x48100b8a140612cc,
        0xe4e6b38d7b998ec3,
        0xb65076ba4d5e23a6,
        0x05a2ec0539270317,
        0x2cc80b6e96c79f73,
        0x9e486a3a90f9d20b,
        0xec50274d48ebbd1a,
        0xfa807357c71f1bc4,
        0x4e79833aac7cc22c,
        0xcc7e9c207f5c3ab3,
        0x9526016185a708a2,
    ],
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
}

fn digest(chunk: &Chunk) -> u64 {
    let mut h = Fnv::new();
    h.eat_u64(chunk.cols.len() as u64);
    h.eat_u64(chunk.len() as u64);
    for col in &chunk.cols {
        match col {
            Col::I64(v) => {
                h.eat(&[1]);
                v.iter().for_each(|x| h.eat(&x.to_le_bytes()));
            }
            Col::F64(v) => {
                h.eat(&[2]);
                v.iter().for_each(|x| h.eat_u64(x.to_bits()));
            }
            Col::Str(v) => {
                h.eat(&[3]);
                for s in v {
                    h.eat_u64(s.len() as u64);
                    h.eat(s.as_bytes());
                }
            }
            Col::Date(v) => {
                h.eat(&[4]);
                v.iter().for_each(|x| h.eat(&x.to_le_bytes()));
            }
            Col::Bool(v) => {
                h.eat(&[5]);
                v.iter().for_each(|&x| h.eat(&[x as u8]));
            }
        }
    }
    h.0
}

#[test]
fn all_queries_match_golden_digests() {
    let mut actual = [[0u64; 22]; 2];
    for (s, &seed) in SEEDS.iter().enumerate() {
        let store = MemPageStore::new();
        let meter = WorkMeter::new();
        let db = TpchDb::load(SF, seed, &store, TxnId(1), &meter, 1024).unwrap();
        for q in 1..=22u32 {
            let ctx = Ctx {
                db: &db,
                store: &store,
                meter: &meter,
                exec: OpExec::new(2),
                late_mat: true,
            };
            let out = run_query(q, &ctx).unwrap_or_else(|e| panic!("Q{q} failed: {e}"));
            actual[s][q as usize - 1] = digest(&out);
        }
    }
    let mut table = String::from("const GOLDEN: [[u64; 22]; 2] = [\n");
    for row in &actual {
        table.push_str("    [\n");
        for d in row {
            table.push_str(&format!("        {d:#018x},\n"));
        }
        table.push_str("    ],\n");
    }
    table.push_str("];");
    println!("{table}");
    for (s, &seed) in SEEDS.iter().enumerate() {
        for q in 0..22 {
            assert_eq!(
                actual[s][q],
                GOLDEN[s][q],
                "Q{} digest changed at SF {SF}, seed {seed}",
                q + 1
            );
        }
    }
}
