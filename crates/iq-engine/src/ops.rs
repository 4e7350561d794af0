//! Physical operators: hash joins (inner / left / semi / anti), hash
//! aggregation, sort and limit.
//!
//! Operators are fully materialized chunk-in/chunk-out functions — at the
//! simulated scale, pipelining buys nothing, and materialization keeps
//! the 22 hand-built TPC-H plans easy to audit. Correlated subqueries are
//! expressed the classical way: aggregate-then-join (Q2, Q17, Q20),
//! semi/anti joins for EXISTS/NOT EXISTS (Q4, Q21, Q22) and IN/NOT IN
//! (Q16, Q18).
//!
//! # Partitioned execution (`*_exec` entry points)
//!
//! [`hash_aggregate_exec`] and [`hash_join_exec`] run one two-phase plan
//! under an [`OpExec`] policy. With more than one worker the phases fan
//! out through the submission/completion [`IoCore`], so operator
//! parallelism shows up in the same depth accounting as scan and flush
//! fan-out; the serial policy is the same plan with one partition, run
//! inline.
//!
//! * **Phase 1 (partition)** — the input is split into contiguous
//!   morsels; each morsel computes its rows' stable key hashes one key
//!   column at a time and buckets *row indices* by `hash % P`. Within a
//!   morsel rows stay ascending, and morsel outputs are concatenated in
//!   morsel order, so every partition's row list is ascending in global
//!   row order.
//! * **Phase 2 (fold/build)** — P partition tasks run independently,
//!   each inserting its rows, *in that global row order*, into its own
//!   `KeyTable` and folding aggregate state (or chaining build rows).
//! * **Stitch** — aggregation orders merged groups by first-occurrence
//!   row; join probes run over contiguous left morsels (each hashing its
//!   own rows) stitched in morsel order, the left-to-right probe order.
//!
//! Determinism argument: a group (or join key) lives entirely in one
//! partition, each partition folds its rows in ascending global row
//! order, and floating-point accumulation is therefore performed in the
//! same order at every partition count — no partial-state merge ever
//! re-associates a float sum. Output is byte-identical for every worker
//! count, so `workers == 1` remains the property-test oracle. The key
//! hash is a fixed FNV-1a over type-tagged key bytes, not `std`'s
//! per-process-seeded hasher, so partition assignment (and with it
//! scheduling shape) is stable run-over-run.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use iq_common::{IoCore, IoStats, IqError, IqResult};

use crate::chunk::{Chunk, Col};
use crate::meter::{cost, WorkMeter};
use crate::store::PageStore;

/// Join flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Emit matching pairs.
    Inner,
    /// Emit every left row; unmatched rows carry default right values and
    /// a 0 in the trailing `matched` marker column.
    Left,
    /// Emit left rows with at least one match (EXISTS / IN).
    Semi,
    /// Emit left rows with no match (NOT EXISTS / NOT IN).
    Anti,
}

/// Execution policy for the partitioned operators: how many workers the
/// fan-out may use and which [`IoStats`] the submission depth is
/// accounted into. `workers == 1` runs the plan with one partition,
/// inline.
#[derive(Debug, Clone, Default)]
pub struct OpExec {
    workers: usize,
    stats: Option<Arc<IoStats>>,
}

impl OpExec {
    /// The serial reference policy (the property-test oracle).
    pub fn serial() -> Self {
        Self {
            workers: 1,
            stats: None,
        }
    }

    /// A policy running on `workers` morsel workers (0 clamps to 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            stats: None,
        }
    }

    /// Account operator fan-out submission depth into `stats` (the
    /// database's shared `io.*` source).
    pub fn with_stats(mut self, stats: Arc<IoStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Policy matching a store's scan parallelism and depth accounting —
    /// operators run as wide as the scans feeding them.
    pub fn for_store(store: &dyn PageStore) -> Self {
        let mut exec = Self::new(store.scan_parallelism());
        exec.stats = store.io_stats();
        exec
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Partition count for the two-phase operators: a little wider than
    /// the worker set so a slow partition doesn't serialize phase 2; one
    /// for the serial policy.
    fn partitions(&self) -> usize {
        if self.workers <= 1 {
            1
        } else {
            self.workers * 2
        }
    }

    /// Run `tasks` closures and return their results in task order: inline
    /// (nothing submitted) for the serial policy, else as one [`IoCore`]
    /// batch.
    fn run_ordered<T, F>(&self, tasks: usize, f: F) -> IqResult<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> IqResult<T> + Sync,
    {
        if self.workers <= 1 {
            return (0..tasks).map(f).collect();
        }
        let core = IoCore::new(self.workers);
        let core = match &self.stats {
            Some(s) => core.with_stats(Arc::clone(s)),
            None => core,
        };
        core.run_ordered(tasks, f)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline(always)]
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Stable key hashes of rows `[lo, hi)` over `key_cols`, computed one
/// column at a time: FNV-1a over each key value's type-tagged bytes, in
/// key-column order. Tags: 1 integer (`Bool` hashes as the 0/1 integer
/// it joins with), 2 string (bytes, then `0xff`), 3 date, 4 float (bit
/// pattern). The function is part of the deterministic-execution
/// contract — it fixes partition assignment run-over-run.
fn hash_rows(chunk: &Chunk, key_cols: &[usize], lo: usize, hi: usize) -> Vec<u64> {
    let mut hashes = vec![FNV_OFFSET; hi - lo];
    for &c in key_cols {
        let hs = hashes.iter_mut();
        match chunk.col(c) {
            Col::I64(v) => {
                for (h, x) in hs.zip(&v[lo..hi]) {
                    *h = fnv(fnv(*h, &[1]), &x.to_le_bytes());
                }
            }
            Col::Bool(v) => {
                for (h, &x) in hs.zip(&v[lo..hi]) {
                    *h = fnv(fnv(*h, &[1]), &(x as i64).to_le_bytes());
                }
            }
            Col::Str(v) => {
                for (h, s) in hs.zip(&v[lo..hi]) {
                    *h = fnv(fnv(fnv(*h, &[2]), s.as_bytes()), &[0xff]);
                }
            }
            Col::Date(v) => {
                for (h, x) in hs.zip(&v[lo..hi]) {
                    *h = fnv(fnv(*h, &[3]), &x.to_le_bytes());
                }
            }
            Col::F64(v) => {
                for (h, x) in hs.zip(&v[lo..hi]) {
                    *h = fnv(fnv(*h, &[4]), &x.to_bits().to_le_bytes());
                }
            }
        }
    }
    hashes
}

/// One key column of each side, resolved to typed slices once so that
/// comparing two rows is a single match on a fixed shape.
#[derive(Clone, Copy)]
enum KeyPair<'a> {
    I(&'a [i64], &'a [i64]),
    IB(&'a [i64], &'a [bool]),
    BI(&'a [bool], &'a [i64]),
    B(&'a [bool], &'a [bool]),
    D(&'a [i32], &'a [i32]),
    F(&'a [f64], &'a [f64]),
    S(&'a [Arc<str>], &'a [Arc<str>]),
    /// Column types whose values are never equal keys (e.g. `I64` vs
    /// `Date`).
    Never,
}

/// Key equality between rows of two chunks, compared in place.
/// Integers and booleans compare as integers, floats by bit pattern,
/// strings by pointer and then by content; a date never equals an
/// integer and no type equals a different one otherwise.
struct KeyEq<'a>(Vec<KeyPair<'a>>);

impl<'a> KeyEq<'a> {
    fn new(a: &'a Chunk, a_cols: &[usize], b: &'a Chunk, b_cols: &[usize]) -> Self {
        Self(
            a_cols
                .iter()
                .zip(b_cols)
                .map(|(&x, &y)| match (a.col(x), b.col(y)) {
                    (Col::I64(p), Col::I64(q)) => KeyPair::I(p, q),
                    (Col::I64(p), Col::Bool(q)) => KeyPair::IB(p, q),
                    (Col::Bool(p), Col::I64(q)) => KeyPair::BI(p, q),
                    (Col::Bool(p), Col::Bool(q)) => KeyPair::B(p, q),
                    (Col::Date(p), Col::Date(q)) => KeyPair::D(p, q),
                    (Col::F64(p), Col::F64(q)) => KeyPair::F(p, q),
                    (Col::Str(p), Col::Str(q)) => KeyPair::S(p, q),
                    _ => KeyPair::Never,
                })
                .collect(),
        )
    }

    /// Row `i` of the first chunk has the same key as row `j` of the
    /// second.
    #[inline]
    fn eq(&self, i: usize, j: usize) -> bool {
        self.0.iter().all(|p| match *p {
            KeyPair::I(a, b) => a[i] == b[j],
            KeyPair::IB(a, b) => a[i] == b[j] as i64,
            KeyPair::BI(a, b) => a[i] as i64 == b[j],
            KeyPair::B(a, b) => a[i] == b[j],
            KeyPair::D(a, b) => a[i] == b[j],
            KeyPair::F(a, b) => a[i].to_bits() == b[j].to_bits(),
            KeyPair::S(a, b) => Arc::ptr_eq(&a[i], &b[j]) || a[i] == b[j],
            KeyPair::Never => false,
        })
    }
}

/// Free slot / end-of-chain marker.
const NONE: u32 = u32::MAX;

/// Hash → first-seen entry, the one table behind grouping and join
/// builds. Open addressing with linear probing over `(hash, entry)`
/// slots, grown at half full. An entry stores only the `u32` item it was
/// created for (a row or a row position); hash collisions are resolved by
/// the caller's equality on that item, so keys are never copied out of
/// their columns.
struct KeyTable {
    slots: Vec<(u64, u32)>,
    shift: u32,
    firsts: Vec<u32>,
}

impl KeyTable {
    fn new() -> Self {
        Self {
            slots: vec![(0, NONE); 16],
            shift: 64 - 4,
            firsts: Vec::new(),
        }
    }

    /// Home slot: Fibonacci hashing takes the well-mixed top bits, since
    /// every hash in one partition shares its low bits (`hash % P`).
    #[inline]
    fn home(&self, hash: u64) -> usize {
        (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Entry of `item` (hashing to `hash`): an existing entry whose first
    /// item `same` accepts, else a new entry with `item` first. Returns
    /// the entry and whether it is new.
    #[inline]
    fn insert(&mut self, hash: u64, item: u32, same: impl Fn(u32) -> bool) -> (u32, bool) {
        if (self.firsts.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let (h, e) = self.slots[i];
            if e == NONE {
                let e = self.firsts.len() as u32;
                self.slots[i] = (hash, e);
                self.firsts.push(item);
                return (e, true);
            }
            if h == hash && same(self.firsts[e as usize]) {
                return (e, false);
            }
            i = (i + 1) & mask;
        }
    }

    /// First item of the entry `same` accepts among those hashing to
    /// `hash`.
    #[inline]
    fn find(&self, hash: u64, same: impl Fn(u32) -> bool) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let (h, e) = self.slots[i];
            if e == NONE {
                return None;
            }
            let first = self.firsts[e as usize];
            if h == hash && same(first) {
                return Some(first);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let doubled = vec![(0, NONE); self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (h, e) in old.into_iter().filter(|&(_, e)| e != NONE) {
            let mut i = self.home(h);
            while self.slots[i].1 != NONE {
                i = (i + 1) & mask;
            }
            self.slots[i] = (h, e);
        }
    }
}

/// Rows are addressed as `u32` inside the key kernel.
fn check_rows(n: usize) -> IqResult<()> {
    if n >= NONE as usize {
        return Err(IqError::Invalid(format!(
            "operator input of {n} rows exceeds the key kernel's u32 row space"
        )));
    }
    Ok(())
}

/// `[lo, hi)` row range of morsel `i` of `m` over `n` rows (first `n % m`
/// morsels take the extra row).
fn morsel_bounds(n: usize, m: usize, i: usize) -> (usize, usize) {
    let base = n / m;
    let extra = n % m;
    let lo = i * base + i.min(extra);
    (lo, lo + base + usize::from(i < extra))
}

/// Morsels a phase-1 or probe pass over `n` rows is split into.
fn morsel_count(exec: &OpExec, n: usize) -> usize {
    (exec.workers() * 4).min(n).max(1)
}

/// Phase 1 of both operators: every row's key hash, and row indices of
/// `chunk` bucketed by `hash % parts`. Morsel-parallel; each partition's
/// row list is ascending in global row order.
fn partition_rows(
    chunk: &Chunk,
    key_cols: &[usize],
    parts: usize,
    exec: &OpExec,
) -> IqResult<(Vec<u64>, Vec<Vec<u32>>)> {
    let n = chunk.len();
    check_rows(n)?;
    let morsels = morsel_count(exec, n);
    let locals = exec.run_ordered(morsels, |i| {
        let (lo, hi) = morsel_bounds(n, morsels, i);
        let hashes = hash_rows(chunk, key_cols, lo, hi);
        let mut mine: Vec<Vec<u32>> = vec![Vec::new(); parts];
        for (row, &h) in (lo..hi).zip(&hashes) {
            mine[(h % parts as u64) as usize].push(row as u32);
        }
        Ok((hashes, mine))
    })?;
    let mut hashes = Vec::with_capacity(n);
    let mut by_part: Vec<Vec<u32>> = vec![Vec::new(); parts];
    for (h, local) in locals {
        hashes.extend(h);
        for (p, rows) in local.into_iter().enumerate() {
            by_part[p].extend(rows);
        }
    }
    Ok((hashes, by_part))
}

/// One partition of the build side: a key table over positions in the
/// partition's (ascending) row list, and `next` chaining every position
/// to the following position with the same key. Chains start at the
/// entry's first position and run in ascending row order.
struct BuildPart<'a> {
    rows: &'a [u32],
    table: KeyTable,
    next: Vec<u32>,
}

impl<'a> BuildPart<'a> {
    fn build(rows: &'a [u32], hashes: &[u64], eq: &KeyEq<'_>) -> Self {
        let mut table = KeyTable::new();
        let mut next = vec![NONE; rows.len()];
        let mut tails: Vec<u32> = Vec::new();
        for (pos, &r) in rows.iter().enumerate() {
            let pos = pos as u32;
            let (e, new) = table.insert(hashes[r as usize], pos, |first| {
                eq.eq(rows[first as usize] as usize, r as usize)
            });
            if new {
                tails.push(pos);
            } else {
                let tail = &mut tails[e as usize];
                next[*tail as usize] = pos;
                *tail = pos;
            }
        }
        Self { rows, table, next }
    }
}

/// Hash join `left ⋈ right` on equal key columns under an [`OpExec`]
/// policy: the build side is partitioned by key hash and built per
/// partition, the probe side runs over contiguous left morsels stitched
/// in morsel order. Byte-identical for every worker count;
/// [`OpExec::serial`] runs it on the calling thread.
///
/// Output layout: `Inner`/`Left` → all left columns then all right
/// columns (`Left` additionally appends an `I64` matched-marker column);
/// `Semi`/`Anti` → left columns only.
pub fn hash_join_exec(
    left: &Chunk,
    right: &Chunk,
    left_keys: &[usize],
    right_keys: &[usize],
    jt: JoinType,
    meter: &WorkMeter,
    exec: &OpExec,
) -> IqResult<Chunk> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(IqError::Invalid("join key arity mismatch".into()));
    }

    // Build: partition right rows by key hash, then build each
    // partition's table independently. Row lists are ascending per
    // partition, so every key's chain is ascending.
    let parts = exec.partitions();
    let (hashes, by_part) = partition_rows(right, right_keys, parts, exec)?;
    let build_eq = KeyEq::new(right, right_keys, right, right_keys);
    let build = exec.run_ordered(parts, |p| {
        Ok(BuildPart::build(&by_part[p], &hashes, &build_eq))
    })?;
    meter.add(cost::JOIN * right.len() as u64);

    // Probe: contiguous left morsels, each hashing its own rows, stitched
    // in morsel order — the left-to-right emission order.
    let probe_eq = KeyEq::new(left, left_keys, right, right_keys);
    let n = left.len();
    let morsels = morsel_count(exec, n);
    let pieces = exec.run_ordered(morsels, |i| {
        let (lo, hi) = morsel_bounds(n, morsels, i);
        Ok(probe_rows(left, left_keys, jt, lo, hi, &build, &probe_eq))
    })?;
    meter.add(cost::JOIN * left.len() as u64);
    let mut left_idx = Vec::new();
    let mut right_idx = Vec::new();
    let mut matched_marker = Vec::new();
    for (l, r, m) in pieces {
        left_idx.extend(l);
        right_idx.extend(r);
        matched_marker.extend(m);
    }

    let mut cols: Vec<Col> = left.cols.iter().map(|c| c.take(&left_idx)).collect();
    match jt {
        JoinType::Inner => {
            for c in &right.cols {
                cols.push(c.take(&right_idx));
            }
        }
        JoinType::Left => {
            for c in &right.cols {
                cols.push(take_with_default(c, &right_idx));
            }
            cols.push(Col::I64(matched_marker));
        }
        JoinType::Semi | JoinType::Anti => {}
    }
    Ok(Chunk::new(cols))
}

/// Probe left rows `[lo, hi)` against the partitioned build side. A key's
/// partition is a pure function of its hash, so each left row meets
/// exactly the build rows a single table would give it, in ascending
/// order.
fn probe_rows(
    left: &Chunk,
    left_keys: &[usize],
    jt: JoinType,
    lo: usize,
    hi: usize,
    build: &[BuildPart],
    eq: &KeyEq<'_>,
) -> (Vec<usize>, Vec<usize>, Vec<i64>) {
    let mut left_idx: Vec<usize> = Vec::new();
    let mut right_idx: Vec<usize> = Vec::new();
    let mut matched_marker: Vec<i64> = Vec::new();
    let hashes = hash_rows(left, left_keys, lo, hi);
    for (l, &h) in (lo..hi).zip(&hashes) {
        let part = &build[(h % build.len() as u64) as usize];
        let head = part
            .table
            .find(h, |first| eq.eq(l, part.rows[first as usize] as usize));
        match (jt, head) {
            (JoinType::Inner | JoinType::Left, Some(mut pos)) => {
                while pos != NONE {
                    left_idx.push(l);
                    right_idx.push(part.rows[pos as usize] as usize);
                    if jt == JoinType::Left {
                        matched_marker.push(1);
                    }
                    pos = part.next[pos as usize];
                }
            }
            (JoinType::Left, None) => {
                left_idx.push(l);
                right_idx.push(usize::MAX);
                matched_marker.push(0);
            }
            (JoinType::Semi, Some(_)) | (JoinType::Anti, None) => left_idx.push(l),
            (JoinType::Inner, None) | (JoinType::Semi, None) | (JoinType::Anti, Some(_)) => {}
        }
    }
    (left_idx, right_idx, matched_marker)
}

fn take_with_default(col: &Col, idx: &[usize]) -> Col {
    match col {
        Col::I64(v) => Col::I64(
            idx.iter()
                .map(|&i| if i == usize::MAX { 0 } else { v[i] })
                .collect(),
        ),
        Col::F64(v) => Col::F64(
            idx.iter()
                .map(|&i| if i == usize::MAX { 0.0 } else { v[i] })
                .collect(),
        ),
        Col::Date(v) => Col::Date(
            idx.iter()
                .map(|&i| if i == usize::MAX { 0 } else { v[i] })
                .collect(),
        ),
        Col::Str(v) => Col::Str(
            idx.iter()
                .map(|&i| {
                    if i == usize::MAX {
                        Arc::from("")
                    } else {
                        Arc::clone(&v[i])
                    }
                })
                .collect(),
        ),
        Col::Bool(v) => Col::Bool(
            idx.iter()
                .map(|&i| if i == usize::MAX { false } else { v[i] })
                .collect(),
        ),
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Sum of floats (ints widen).
    Sum,
    /// Row count (input column ignored).
    Count,
    /// Mean of floats.
    Avg,
    /// Minimum (numeric or string).
    Min,
    /// Maximum (numeric or string).
    Max,
    /// Count of distinct integer values.
    CountDistinct,
}

/// One aggregate: `kind(input column)`.
#[derive(Debug, Clone, Copy)]
pub struct AggSpec {
    /// Chunk column the aggregate reads.
    pub col: usize,
    /// Function.
    pub kind: AggKind,
}

impl AggSpec {
    /// `SUM(col)`
    pub fn sum(col: usize) -> Self {
        Self {
            col,
            kind: AggKind::Sum,
        }
    }
    /// `COUNT(*)` (column is still read for arity checks; use any).
    pub fn count(col: usize) -> Self {
        Self {
            col,
            kind: AggKind::Count,
        }
    }
    /// `AVG(col)`
    pub fn avg(col: usize) -> Self {
        Self {
            col,
            kind: AggKind::Avg,
        }
    }
    /// `MIN(col)`
    pub fn min(col: usize) -> Self {
        Self {
            col,
            kind: AggKind::Min,
        }
    }
    /// `MAX(col)`
    pub fn max(col: usize) -> Self {
        Self {
            col,
            kind: AggKind::Max,
        }
    }
    /// `COUNT(DISTINCT col)` (integer columns).
    pub fn count_distinct(col: usize) -> Self {
        Self {
            col,
            kind: AggKind::CountDistinct,
        }
    }
}

/// Fixed multiply-xorshift hasher for `COUNT(DISTINCT)` sets. Only a
/// set's size is ever read, so the hash function cannot change output;
/// it just has to be cheaper than SipHash on an `i64`.
#[derive(Default)]
struct DistinctHasher(u64);

impl Hasher for DistinctHasher {
    fn finish(&self) -> u64 {
        let x = self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^ (x >> 29)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }

    fn write_i64(&mut self, v: i64) {
        self.0 ^= v as u64;
    }
}

#[derive(Debug, Clone)]
enum AggState {
    Sum(f64),
    Count(u64),
    Avg(f64, u64),
    MinF(Option<f64>),
    MaxF(Option<f64>),
    MinI(Option<i64>),
    MaxI(Option<i64>),
    MinS(Option<Arc<str>>),
    MaxS(Option<Arc<str>>),
    Distinct(HashSet<i64, BuildHasherDefault<DistinctHasher>>),
}

/// Output column shape of one aggregate, derived *statically* from the
/// spec and the input column type — never from a runtime state value, so
/// a partitioned plan whose first partition is empty cannot disagree
/// with the serial path about column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggOut {
    F,
    I,
    S,
}

fn agg_out_kind(kind: AggKind, col: &Col) -> IqResult<AggOut> {
    Ok(match (kind, col) {
        (AggKind::Sum | AggKind::Avg, _) => AggOut::F,
        (AggKind::Count, _) => AggOut::I,
        (AggKind::Min | AggKind::Max, Col::F64(_)) => AggOut::F,
        (AggKind::Min | AggKind::Max, Col::I64(_) | Col::Date(_)) => AggOut::I,
        (AggKind::Min | AggKind::Max, Col::Str(_)) => AggOut::S,
        (AggKind::CountDistinct, Col::I64(_)) => AggOut::I,
        (k, c) => {
            return Err(IqError::Invalid(format!(
                "aggregate {k:?} unsupported over {:?}",
                c.data_type()
            )))
        }
    })
}

fn new_state(kind: AggKind, col: &Col) -> IqResult<AggState> {
    Ok(match (kind, col) {
        (AggKind::Sum, _) => AggState::Sum(0.0),
        (AggKind::Count, _) => AggState::Count(0),
        (AggKind::Avg, _) => AggState::Avg(0.0, 0),
        (AggKind::Min, Col::F64(_)) => AggState::MinF(None),
        (AggKind::Max, Col::F64(_)) => AggState::MaxF(None),
        (AggKind::Min, Col::I64(_) | Col::Date(_)) => AggState::MinI(None),
        (AggKind::Max, Col::I64(_) | Col::Date(_)) => AggState::MaxI(None),
        (AggKind::Min, Col::Str(_)) => AggState::MinS(None),
        (AggKind::Max, Col::Str(_)) => AggState::MaxS(None),
        (AggKind::CountDistinct, Col::I64(_)) => AggState::Distinct(HashSet::default()),
        (k, c) => {
            return Err(IqError::Invalid(format!(
                "aggregate {k:?} unsupported over {:?}",
                c.data_type()
            )))
        }
    })
}

fn update(state: &mut AggState, col: &Col, row: usize) {
    match state {
        AggState::Sum(acc) => {
            *acc += match col {
                Col::F64(v) => v[row],
                Col::I64(v) => v[row] as f64,
                _ => 0.0,
            }
        }
        AggState::Count(n) => *n += 1,
        AggState::Avg(acc, n) => {
            *acc += match col {
                Col::F64(v) => v[row],
                Col::I64(v) => v[row] as f64,
                _ => 0.0,
            };
            *n += 1;
        }
        AggState::MinF(m) => {
            let x = col.f64s()[row];
            *m = Some(m.map_or(x, |cur| cur.min(x)));
        }
        AggState::MaxF(m) => {
            let x = col.f64s()[row];
            *m = Some(m.map_or(x, |cur| cur.max(x)));
        }
        AggState::MinI(m) => {
            let x = match col {
                Col::I64(v) => v[row],
                Col::Date(v) => v[row] as i64,
                _ => 0,
            };
            *m = Some(m.map_or(x, |cur| cur.min(x)));
        }
        AggState::MaxI(m) => {
            let x = match col {
                Col::I64(v) => v[row],
                Col::Date(v) => v[row] as i64,
                _ => 0,
            };
            *m = Some(m.map_or(x, |cur| cur.max(x)));
        }
        AggState::MinS(m) => {
            let x = &col.strs()[row];
            if m.as_ref().is_none_or(|cur| x < cur) {
                *m = Some(Arc::clone(x));
            }
        }
        AggState::MaxS(m) => {
            let x = &col.strs()[row];
            if m.as_ref().is_none_or(|cur| x > cur) {
                *m = Some(Arc::clone(x));
            }
        }
        AggState::Distinct(set) => {
            set.insert(col.i64s()[row]);
        }
    }
}

fn finalize(state: &AggState) -> AggResult {
    match state {
        AggState::Sum(acc) => AggResult::F(*acc),
        AggState::Count(n) => AggResult::I(*n as i64),
        AggState::Avg(acc, n) => AggResult::F(if *n == 0 { 0.0 } else { acc / *n as f64 }),
        AggState::MinF(m) | AggState::MaxF(m) => AggResult::F(m.unwrap_or(0.0)),
        AggState::MinI(m) | AggState::MaxI(m) => AggResult::I(m.unwrap_or(0)),
        AggState::MinS(m) | AggState::MaxS(m) => {
            AggResult::S(m.clone().unwrap_or_else(|| Arc::from("")))
        }
        AggState::Distinct(set) => AggResult::I(set.len() as i64),
    }
}

enum AggResult {
    F(f64),
    I(i64),
    S(Arc<str>),
}

/// One partition's groups: first-occurrence rows (strictly ascending)
/// and flat aggregate state, group `g`'s aggregate `a` at
/// `states[g * aggs.len() + a]`.
struct Folded {
    firsts: Vec<u32>,
    states: Vec<AggState>,
}

/// Fold `rows` (ascending global row indices) into per-group states,
/// groups numbered in first-seen order. This is *the* state-transition
/// loop: every partition folds its rows in ascending global order, so a
/// group's accumulation (including float sums) runs in the identical
/// sequence at every partition count and the results are bitwise equal.
fn aggregate_rows(
    input: &Chunk,
    group_cols: &[usize],
    aggs: &[AggSpec],
    init: &[AggState],
    hashes: &[u64],
    rows: &[u32],
) -> Folded {
    let eq = KeyEq::new(input, group_cols, input, group_cols);
    let mut table = KeyTable::new();
    let group_of: Vec<u32> = rows
        .iter()
        .map(|&r| {
            table
                .insert(hashes[r as usize], r, |first| {
                    eq.eq(first as usize, r as usize)
                })
                .0
        })
        .collect();
    let mut states = Vec::with_capacity(table.firsts.len() * init.len());
    for _ in 0..table.firsts.len() {
        states.extend_from_slice(init);
    }
    // Aggregate-at-a-time: each state sees its rows in ascending order
    // exactly as a row-at-a-time loop would feed them.
    for (a, spec) in aggs.iter().enumerate() {
        let col = input.col(spec.col);
        for (&r, &g) in rows.iter().zip(&group_of) {
            update(&mut states[g as usize * aggs.len() + a], col, r as usize);
        }
    }
    Folded {
        firsts: table.firsts,
        states,
    }
}

/// Hash aggregation under an [`OpExec`] policy: a partitioned two-phase
/// plan (partition rows by group-key hash, fold partitions
/// independently, stitch groups back in first-occurrence order).
/// Byte-identical for every worker count; charges the meter the same
/// total units at every worker count, so metered cost classification is
/// worker-count-independent. [`OpExec::serial`] runs it on the calling
/// thread.
///
/// Output: group columns followed by one column per aggregate. With no
/// group columns, produces exactly one row (scalar aggregates over an
/// empty input yield 0/empty).
pub fn hash_aggregate_exec(
    input: &Chunk,
    group_cols: &[usize],
    aggs: &[AggSpec],
    meter: &WorkMeter,
    exec: &OpExec,
) -> IqResult<Chunk> {
    let init: Vec<AggState> = aggs
        .iter()
        .map(|a| new_state(a.kind, input.col(a.col)))
        .collect::<IqResult<_>>()?;
    // A one-row input has nothing to fan out.
    let serial = OpExec::serial();
    let exec = if input.len() < 2 { &serial } else { exec };
    let parts = exec.partitions();
    let (hashes, by_part) = partition_rows(input, group_cols, parts, exec)?;
    let folded = exec.run_ordered(parts, |p| {
        Ok(aggregate_rows(
            input,
            group_cols,
            aggs,
            &init,
            &hashes,
            &by_part[p],
        ))
    })?;
    meter.add(cost::AGG * input.len() as u64 * aggs.len().max(1) as u64);

    // Stitch: ordering groups by their (unique) first-occurrence row is
    // the order a single left-to-right fold discovers them in.
    let mut order: Vec<(u32, usize, usize)> = folded
        .iter()
        .enumerate()
        .flat_map(|(p, f)| f.firsts.iter().enumerate().map(move |(g, &r)| (r, p, g)))
        .collect();
    order.sort_unstable_by_key(|&(r, _, _)| r);
    let mut states: Vec<&[AggState]> = order
        .iter()
        .map(|&(_, p, g)| &folded[p].states[g * aggs.len()..(g + 1) * aggs.len()])
        .collect();
    let firsts: Vec<usize> = order.iter().map(|&(r, _, _)| r as usize).collect();

    // Scalar aggregate over empty input: one row of initial states
    // (grouped aggregates over empty input emit zero rows; output types
    // are derived statically either way).
    if states.is_empty() && group_cols.is_empty() {
        states.push(&init);
    }

    // Assemble output columns.
    let mut out: Vec<Col> = Vec::with_capacity(group_cols.len() + aggs.len());
    for &g in group_cols {
        out.push(input.col(g).take(&firsts));
    }
    for (ai, a) in aggs.iter().enumerate() {
        let mut col = match agg_out_kind(a.kind, input.col(a.col))? {
            AggOut::F => Col::F64(Vec::with_capacity(states.len())),
            AggOut::I => Col::I64(Vec::with_capacity(states.len())),
            AggOut::S => Col::Str(Vec::with_capacity(states.len())),
        };
        for s in &states {
            match (&mut col, finalize(&s[ai])) {
                (Col::F64(v), AggResult::F(x)) => v.push(x),
                (Col::I64(v), AggResult::I(x)) => v.push(x),
                (Col::Str(v), AggResult::S(x)) => v.push(x),
                _ => unreachable!("state shape always matches the static output kind"),
            }
        }
        out.push(col);
    }
    Ok(Chunk::new(out))
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDir {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

fn cmp_rows(chunk: &Chunk, keys: &[(usize, SortDir)], a: usize, b: usize) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    for &(c, dir) in keys {
        let ord = match chunk.col(c) {
            Col::I64(v) => v[a].cmp(&v[b]),
            Col::Date(v) => v[a].cmp(&v[b]),
            Col::F64(v) => v[a].total_cmp(&v[b]),
            Col::Str(v) => v[a].cmp(&v[b]),
            Col::Bool(v) => v[a].cmp(&v[b]),
        };
        let ord = if dir == SortDir::Desc {
            ord.reverse()
        } else {
            ord
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Stable multi-key sort.
pub fn sort(input: &Chunk, keys: &[(usize, SortDir)], meter: &WorkMeter) -> Chunk {
    let mut idx: Vec<usize> = (0..input.len()).collect();
    idx.sort_by(|&a, &b| cmp_rows(input, keys, a, b));
    let n = input.len() as u64;
    meter.add(cost::SORT * n * (64 - n.leading_zeros() as u64).max(1));
    input.take(&idx)
}

/// First `n` rows.
pub fn limit(input: &Chunk, n: usize) -> Chunk {
    let idx: Vec<usize> = (0..input.len().min(n)).collect();
    input.take(&idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn left() -> Chunk {
        Chunk::new(vec![
            Col::I64(vec![1, 2, 3, 4]),
            Col::Str(vec!["a".into(), "b".into(), "c".into(), "d".into()]),
        ])
    }

    fn right() -> Chunk {
        Chunk::new(vec![
            Col::I64(vec![2, 2, 4, 5]),
            Col::F64(vec![20.0, 21.0, 40.0, 50.0]),
        ])
    }

    /// Bitwise column-by-column equality (f64 compared by bit pattern:
    /// the partitioned operators promise *byte* identity, not ε-closeness).
    fn assert_chunks_bitwise_eq(a: &Chunk, b: &Chunk) {
        assert_eq!(a.cols.len(), b.cols.len(), "arity differs");
        for (i, (ca, cb)) in a.cols.iter().zip(&b.cols).enumerate() {
            match (ca, cb) {
                (Col::I64(x), Col::I64(y)) => assert_eq!(x, y, "col {i}"),
                (Col::Date(x), Col::Date(y)) => assert_eq!(x, y, "col {i}"),
                (Col::Bool(x), Col::Bool(y)) => assert_eq!(x, y, "col {i}"),
                (Col::Str(x), Col::Str(y)) => assert_eq!(x, y, "col {i}"),
                (Col::F64(x), Col::F64(y)) => {
                    let xb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                    let yb: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(xb, yb, "col {i} float bits differ");
                }
                (a, b) => panic!("col {i} type differs: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn inner_join_emits_pairs() {
        let m = WorkMeter::new();
        let out = hash_join_exec(
            &left(),
            &right(),
            &[0],
            &[0],
            JoinType::Inner,
            &m,
            &OpExec::serial(),
        )
        .unwrap();
        assert_eq!(out.len(), 3); // 2 matches twice, 4 once
        assert_eq!(out.col(0).i64s(), &[2, 2, 4]);
        assert_eq!(out.col(3).f64s(), &[20.0, 21.0, 40.0]);
        assert!(m.total() > 0);
    }

    #[test]
    fn left_join_marks_matches() {
        let m = WorkMeter::new();
        let out = hash_join_exec(
            &left(),
            &right(),
            &[0],
            &[0],
            JoinType::Left,
            &m,
            &OpExec::serial(),
        )
        .unwrap();
        assert_eq!(out.len(), 5); // 1,2,2,3,4
        let marker = out.col(out.cols.len() - 1).i64s();
        assert_eq!(marker, &[0, 1, 1, 0, 1]);
        // Unmatched right values default to zero.
        assert_eq!(out.col(3).f64s()[0], 0.0);
    }

    #[test]
    fn semi_and_anti_join() {
        let m = WorkMeter::new();
        let semi = hash_join_exec(
            &left(),
            &right(),
            &[0],
            &[0],
            JoinType::Semi,
            &m,
            &OpExec::serial(),
        )
        .unwrap();
        assert_eq!(semi.col(0).i64s(), &[2, 4]);
        assert_eq!(semi.cols.len(), 2); // left columns only
        let anti = hash_join_exec(
            &left(),
            &right(),
            &[0],
            &[0],
            JoinType::Anti,
            &m,
            &OpExec::serial(),
        )
        .unwrap();
        assert_eq!(anti.col(0).i64s(), &[1, 3]);
    }

    #[test]
    fn multi_key_join() {
        let m = WorkMeter::new();
        let l = Chunk::new(vec![
            Col::I64(vec![1, 1, 2]),
            Col::Str(vec!["x".into(), "y".into(), "x".into()]),
        ]);
        let r = Chunk::new(vec![
            Col::I64(vec![1, 2]),
            Col::Str(vec!["y".into(), "x".into()]),
            Col::F64(vec![7.0, 8.0]),
        ]);
        let out = hash_join_exec(
            &l,
            &r,
            &[0, 1],
            &[0, 1],
            JoinType::Inner,
            &m,
            &OpExec::serial(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.col(4).f64s(), &[7.0, 8.0]);
    }

    #[test]
    fn join_key_arity_checked() {
        let m = WorkMeter::new();
        assert!(hash_join_exec(
            &left(),
            &right(),
            &[0],
            &[0, 1],
            JoinType::Inner,
            &m,
            &OpExec::serial()
        )
        .is_err());
        assert!(hash_join_exec(
            &left(),
            &right(),
            &[],
            &[],
            JoinType::Inner,
            &m,
            &OpExec::serial()
        )
        .is_err());
    }

    #[test]
    fn grouped_aggregation() {
        let m = WorkMeter::new();
        let input = Chunk::new(vec![
            Col::Str(vec!["A".into(), "B".into(), "A".into(), "A".into()]),
            Col::F64(vec![1.0, 2.0, 3.0, 4.0]),
            Col::I64(vec![10, 20, 10, 30]),
        ]);
        let out = hash_aggregate_exec(
            &input,
            &[0],
            &[
                AggSpec::sum(1),
                AggSpec::count(1),
                AggSpec::avg(1),
                AggSpec::min(1),
                AggSpec::max(1),
                AggSpec::count_distinct(2),
            ],
            &m,
            &OpExec::serial(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        // Locate group A.
        let a = out
            .col(0)
            .strs()
            .iter()
            .position(|s| s.as_ref() == "A")
            .unwrap();
        assert_eq!(out.col(1).f64s()[a], 8.0);
        assert_eq!(out.col(2).i64s()[a], 3);
        assert!((out.col(3).f64s()[a] - 8.0 / 3.0).abs() < 1e-9);
        assert_eq!(out.col(4).f64s()[a], 1.0);
        assert_eq!(out.col(5).f64s()[a], 4.0);
        assert_eq!(out.col(6).i64s()[a], 2); // distinct {10, 30}
    }

    #[test]
    fn scalar_aggregate_including_empty() {
        let m = WorkMeter::new();
        let input = Chunk::new(vec![Col::F64(vec![1.0, 2.0])]);
        let out =
            hash_aggregate_exec(&input, &[], &[AggSpec::sum(0)], &m, &OpExec::serial()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.col(0).f64s(), &[3.0]);
        let empty = Chunk::new(vec![Col::F64(vec![])]);
        let out = hash_aggregate_exec(
            &empty,
            &[],
            &[AggSpec::sum(0), AggSpec::count(0)],
            &m,
            &OpExec::serial(),
        )
        .unwrap();
        assert_eq!(out.col(0).f64s(), &[0.0]);
        assert_eq!(out.col(1).i64s(), &[0]);
    }

    #[test]
    fn min_max_over_strings_and_dates() {
        let m = WorkMeter::new();
        let input = Chunk::new(vec![
            Col::Str(vec!["PERU".into(), "BRAZIL".into()]),
            Col::Date(vec![100, 50]),
        ]);
        let out = hash_aggregate_exec(
            &input,
            &[],
            &[AggSpec::min(0), AggSpec::max(1)],
            &m,
            &OpExec::serial(),
        )
        .unwrap();
        assert_eq!(out.col(0).strs()[0].as_ref(), "BRAZIL");
        assert_eq!(out.col(1).i64s()[0], 100);
    }

    #[test]
    fn sort_multi_key_and_limit() {
        let m = WorkMeter::new();
        let input = Chunk::new(vec![
            Col::I64(vec![2, 1, 2, 1]),
            Col::F64(vec![5.0, 6.0, 4.0, 7.0]),
        ]);
        let out = sort(&input, &[(0, SortDir::Asc), (1, SortDir::Desc)], &m);
        assert_eq!(out.col(0).i64s(), &[1, 1, 2, 2]);
        assert_eq!(out.col(1).f64s(), &[7.0, 6.0, 5.0, 4.0]);
        let top = limit(&out, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(limit(&top, 100).len(), 2);
    }

    #[test]
    fn aggregate_rejects_bad_types() {
        let m = WorkMeter::new();
        let input = Chunk::new(vec![Col::Str(vec!["x".into()])]);
        assert!(hash_aggregate_exec(
            &input,
            &[],
            &[AggSpec::count_distinct(0)],
            &m,
            &OpExec::serial()
        )
        .is_err());
    }

    /// A float workload whose sums are sensitive to accumulation order:
    /// reassociating any group's adds shifts the low mantissa bits.
    fn reassociation_canary(rows: usize) -> Chunk {
        let mut keys = Vec::with_capacity(rows);
        let mut vals = Vec::with_capacity(rows);
        let mut ids = Vec::with_capacity(rows);
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for i in 0..rows {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            keys.push((x % 7) as i64);
            vals.push(0.1 + (x % 1000) as f64 * 1e-7 + i as f64 * 1e-3);
            ids.push((x % 13) as i64);
        }
        Chunk::new(vec![Col::I64(keys), Col::F64(vals), Col::I64(ids)])
    }

    #[test]
    fn partitioned_aggregate_is_bitwise_identical_to_serial() {
        let input = reassociation_canary(997);
        let aggs = [
            AggSpec::sum(1),
            AggSpec::avg(1),
            AggSpec::count(0),
            AggSpec::min(1),
            AggSpec::max(1),
            AggSpec::count_distinct(2),
        ];
        let m = WorkMeter::new();
        let oracle = hash_aggregate_exec(&input, &[0], &aggs, &m, &OpExec::serial()).unwrap();
        let serial_units = m.total();
        for workers in [2, 3, 8] {
            let m = WorkMeter::new();
            let out = hash_aggregate_exec(&input, &[0], &aggs, &m, &OpExec::new(workers)).unwrap();
            assert_chunks_bitwise_eq(&oracle, &out);
            assert_eq!(
                m.total(),
                serial_units,
                "metered cost must not depend on workers"
            );
        }
    }

    #[test]
    fn partitioned_join_matches_serial_for_every_flavour() {
        let canary = reassociation_canary(503);
        let l = Chunk::new(vec![canary.col(0).clone(), canary.col(1).clone()]);
        let r = Chunk::new(vec![
            Col::I64((0..40).map(|i| i % 9).collect()),
            Col::F64((0..40).map(|i| i as f64 * 0.25).collect()),
        ]);
        for jt in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let m = WorkMeter::new();
            let oracle = hash_join_exec(&l, &r, &[0], &[0], jt, &m, &OpExec::serial()).unwrap();
            let serial_units = m.total();
            for workers in [2, 8] {
                let m = WorkMeter::new();
                let out =
                    hash_join_exec(&l, &r, &[0], &[0], jt, &m, &OpExec::new(workers)).unwrap();
                assert_chunks_bitwise_eq(&oracle, &out);
                assert_eq!(m.total(), serial_units);
            }
        }
    }

    #[test]
    fn empty_partitions_keep_static_output_types() {
        // One group, eight workers: most partitions fold zero rows. The
        // output types must come from the specs, not from whichever
        // partition happened to be populated.
        let input = Chunk::new(vec![
            Col::I64(vec![42; 16]),
            Col::Str(
                (0..16)
                    .map(|i| Arc::from(format!("s{i}")) as Arc<str>)
                    .collect(),
            ),
        ]);
        let m = WorkMeter::new();
        let out = hash_aggregate_exec(
            &input,
            &[0],
            &[AggSpec::count(0), AggSpec::min(1)],
            &m,
            &OpExec::new(8),
        )
        .unwrap();
        assert!(matches!(out.col(1), Col::I64(_)));
        assert!(matches!(out.col(2), Col::Str(_)));

        // Grouped aggregate over an empty input: zero rows, but the
        // columns still carry statically-derived types.
        let empty = Chunk::new(vec![Col::I64(vec![]), Col::F64(vec![])]);
        let out = hash_aggregate_exec(
            &empty,
            &[0],
            &[AggSpec::sum(1), AggSpec::count(0)],
            &m,
            &OpExec::serial(),
        )
        .unwrap();
        assert_eq!(out.len(), 0);
        assert!(matches!(out.col(1), Col::F64(_)));
        assert!(matches!(out.col(2), Col::I64(_)));
    }

    #[test]
    fn partitioned_ops_account_submission_depth() {
        let stats = Arc::new(IoStats::default());
        let exec = OpExec::new(4).with_stats(Arc::clone(&stats));
        let input = reassociation_canary(256);
        let m = WorkMeter::new();
        hash_aggregate_exec(&input, &[0], &[AggSpec::sum(1)], &m, &exec).unwrap();
        let snap = stats.snapshot();
        assert!(
            snap.in_flight_peak >= 8,
            "partition fan-out must account submission depth (peak {})",
            snap.in_flight_peak
        );
        assert_eq!(
            stats
                .ops_in_flight
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
    }

    /// The per-key stable hash the operators used before hashing became
    /// column-at-a-time, kept as the reference the kernel must equal:
    /// FNV-1a over each key's type-tagged little-endian bytes.
    enum RefKey<'a> {
        I(i64),
        S(&'a str),
        D(i32),
        F(u64),
    }

    fn ref_hash(key: &[RefKey]) -> u64 {
        let mut h = FNV_OFFSET;
        for k in key {
            h = match k {
                RefKey::I(v) => fnv(fnv(h, &[1]), &v.to_le_bytes()),
                RefKey::S(s) => fnv(fnv(fnv(h, &[2]), s.as_bytes()), &[0xff]),
                RefKey::D(v) => fnv(fnv(h, &[3]), &v.to_le_bytes()),
                RefKey::F(bits) => fnv(fnv(h, &[4]), &bits.to_le_bytes()),
            };
        }
        h
    }

    #[test]
    fn row_hashes_equal_the_per_key_reference() {
        let floats = [
            1.5,
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::INFINITY,
        ];
        let n = floats.len();
        let chunk = Chunk::new(vec![
            Col::I64((0..n as i64).map(|i| i * 1_000_003 - 7).collect()),
            Col::Bool((0..n).map(|i| i % 2 == 1).collect()),
            Col::Str((0..n).map(|i| Arc::from("x".repeat(i))).collect()),
            Col::Date((0..n as i32).map(|i| i * 365 - 20_000).collect()),
            Col::F64(floats.to_vec()),
        ]);
        let keys = |r: usize| {
            let c = &chunk.cols;
            [
                RefKey::I(c[0].i64s()[r]),
                RefKey::I(c[1].bools()[r] as i64),
                RefKey::S(&c[2].strs()[r]),
                RefKey::D(c[3].dates()[r]),
                RefKey::F(c[4].f64s()[r].to_bits()),
            ]
        };
        // Every single column, the full mixed-type key, and a reordered
        // pair; over every row and over an interior row range.
        let key_sets: [&[usize]; 8] =
            [&[0], &[1], &[2], &[3], &[4], &[0, 1, 2, 3, 4], &[4, 2], &[]];
        for cols in key_sets {
            for (lo, hi) in [(0, n), (2, 5)] {
                let got = hash_rows(&chunk, cols, lo, hi);
                for (r, h) in (lo..hi).zip(got) {
                    let all = keys(r);
                    let want: Vec<RefKey> = cols
                        .iter()
                        .map(|&c| match &all[c] {
                            RefKey::I(v) => RefKey::I(*v),
                            RefKey::S(s) => RefKey::S(s),
                            RefKey::D(v) => RefKey::D(*v),
                            RefKey::F(b) => RefKey::F(*b),
                        })
                        .collect();
                    assert_eq!(h, ref_hash(&want), "cols {cols:?} row {r}");
                }
            }
        }
        // -0.0 and 0.0, and distinct NaN payloads, key apart.
        let f = hash_rows(&chunk, &[4], 0, n);
        assert_ne!(f[1], f[2]);
        assert_ne!(f[3], f[4]);
        assert_ne!(f[3], f[5]);
    }

    #[test]
    fn stable_hash_is_run_independent_constants() {
        // Pinned values: the partition function is part of the
        // deterministic-execution contract (std's RandomState is not).
        let one = |col: Col| hash_rows(&Chunk::new(vec![col]), &[0], 0, 1)[0];
        assert_eq!(one(Col::I64(vec![42])), 0xb960_a184_f070_32c6);
        assert_eq!(one(Col::I64(vec![42])), one(Col::I64(vec![42])));
        assert_ne!(one(Col::I64(vec![1])), one(Col::I64(vec![2])));
        // Tagging keeps same-bytes values of different kinds apart.
        assert_ne!(one(Col::I64(vec![0])), one(Col::F64(vec![0.0])));
        assert_ne!(one(Col::I64(vec![0])), one(Col::Date(vec![0])));
        // Booleans hash as the integers they join with.
        assert_eq!(one(Col::Bool(vec![true])), one(Col::I64(vec![1])));
        let mixed = Chunk::new(vec![
            Col::I64(vec![7]),
            Col::Str(vec!["AIR".into()]),
            Col::Date(vec![-3]),
            Col::F64(vec![-0.0]),
        ]);
        assert_eq!(
            hash_rows(&mixed, &[0, 1, 2, 3], 0, 1)[0],
            0xeae3_268e_3274_a29f
        );
    }

    #[test]
    fn key_equality_for_all_types() {
        let c = Chunk::new(vec![
            Col::I64(vec![1, 2]),
            Col::F64(vec![1.5, 2.5]),
            Col::Str(vec!["a".into(), "b".into()]),
            Col::Bool(vec![true, false]),
            Col::Date(vec![1, 2]),
        ]);
        let probe = Chunk::new(vec![
            Col::I64(vec![1]),
            Col::F64(vec![1.5]),
            // Equal content in a distinct allocation.
            Col::Str(vec![Arc::from(String::from("b"))]),
        ]);
        let eq = |a: usize, b: usize| KeyEq::new(&probe, &[a], &c, &[b]);
        assert!(eq(0, 0).eq(0, 0));
        assert!(!eq(0, 0).eq(0, 1));
        // Floats key by bit pattern: equal values collide, distinct don't.
        assert!(eq(1, 1).eq(0, 0));
        assert!(!eq(1, 1).eq(0, 1));
        assert!(eq(2, 2).eq(0, 1));
        assert!(!eq(2, 2).eq(0, 0));
        // Integers equal booleans as 0/1; never dates, floats or strings.
        assert!(eq(0, 3).eq(0, 0));
        assert!(!eq(0, 3).eq(0, 1));
        assert!(!eq(0, 4).eq(0, 0));
        assert!(!eq(0, 1).eq(0, 0));
        assert!(!eq(0, 2).eq(0, 0));
        // -0.0 and 0.0 are distinct keys.
        let z = Chunk::new(vec![Col::F64(vec![0.0, -0.0])]);
        assert!(!KeyEq::new(&z, &[0], &z, &[0]).eq(0, 1));
    }

    #[test]
    fn key_values_order() {
        let m = WorkMeter::new();
        let input = Chunk::new(vec![
            Col::I64(vec![2, 1]),
            Col::Str(vec!["b".into(), "a".into()]),
        ]);
        let by_int = sort(&input, &[(0, SortDir::Asc)], &m);
        assert_eq!(by_int.col(0).i64s(), &[1, 2]);
        let by_str = sort(&input, &[(1, SortDir::Asc)], &m);
        assert_eq!(by_str.col(1).strs()[0].as_ref(), "a");
    }
}
