//! Range-partitioned columnar tables stored as row groups.
//!
//! A table is a sequence of *row groups*; each row group stores each
//! column in one page (`PageId = group × ncols + col`). Per-group zone
//! maps prune scans; per-column dictionaries and HG indexes are built
//! during load. "The TPC-H tables are created as range-partitioned, and
//! High-Group (HG) indexes are created on the following columns..." (§6) —
//! the schema declarations in `iq-tpch` mirror that setup.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use iq_common::trace::{self, EventKind};
use iq_common::{IoCore, IqError, IqResult, PageId, TableId, TxnId};
use iq_storage::PageKind;
use serde::{Deserialize, Serialize};

use crate::chunk::{Chunk, Col};
use crate::encode::{decode_codes, decode_column, encode_column, Dictionary};
use crate::expr::Expr;
use crate::hg::HgIndex;
use crate::meter::{cost, WorkMeter};
use crate::prefetch::{PrefetchAdmission, PREFETCH_DEPTH};
use crate::store::PageStore;
use crate::value::{DataType, Value};
use crate::zonemap::ZoneEntry;

/// Options controlling a [`TableMeta::scan_with_options`] run.
#[derive(Debug, Clone, Copy)]
pub struct ScanOptions {
    /// Morsel-parallelism degree.
    pub workers: usize,
    /// Two-phase late materialization: read predicate pages first and
    /// skip a group's projection pages when its mask comes up all-false.
    /// Off reproduces the classic eager scan (the ablation baseline);
    /// output is bitwise identical either way.
    pub late_mat: bool,
}

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Physical type.
    pub dtype: DataType,
}

/// A table schema.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    /// Columns in order.
    pub columns: Vec<ColumnDef>,
}

impl Schema {
    /// Build from `(name, type)` pairs.
    pub fn new(cols: &[(&str, DataType)]) -> Self {
        Self {
            columns: cols
                .iter()
                .map(|(n, t)| ColumnDef {
                    name: n.to_string(),
                    dtype: *t,
                })
                .collect(),
        }
    }

    /// Index of a named column.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

/// Range partitioning declaration: rows route to the partition whose
/// upper bound (exclusive) is the first one above the value; values above
/// every bound fall in the last partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RangePartitioning {
    /// Partition column (must be I64 or Date).
    pub column: usize,
    /// Ascending exclusive upper bounds; `bounds.len() + 1` partitions.
    pub bounds: Vec<i64>,
}

impl RangePartitioning {
    /// Partition index of a value.
    pub fn partition_of(&self, v: i64) -> usize {
        self.bounds.partition_point(|&b| b <= v)
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.bounds.len() + 1
    }
}

/// Metadata of one row group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RowGroupMeta {
    /// Rows in the group.
    pub rows: u32,
    /// Zone entry per column.
    pub zones: Vec<ZoneEntry>,
    /// Partition id when every row falls in one partition.
    pub partition: Option<u32>,
}

/// A table's complete metadata: schema, groups, dictionaries, indexes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableMeta {
    /// Table id.
    pub id: TableId,
    /// Table name.
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// Rows per full group.
    pub row_group_size: u32,
    /// Row groups in order.
    pub groups: Vec<RowGroupMeta>,
    /// Per-column dictionary (string columns only).
    pub dicts: Vec<Option<Dictionary>>,
    /// Range partitioning, if declared.
    pub partitioning: Option<RangePartitioning>,
    /// Columns carrying an HG index.
    pub hg_columns: Vec<usize>,
    /// Built HG indexes (column → index), populated during load.
    pub hg_indexes: BTreeMap<usize, HgIndex>,
}

impl TableMeta {
    /// Fresh empty table.
    pub fn new(id: TableId, name: impl Into<String>, schema: Schema, row_group_size: u32) -> Self {
        let dicts = schema
            .columns
            .iter()
            .map(|c| (c.dtype == DataType::Str).then(Dictionary::new))
            .collect();
        Self {
            id,
            name: name.into(),
            schema,
            row_group_size,
            groups: Vec::new(),
            dicts,
            partitioning: None,
            hg_columns: Vec::new(),
            hg_indexes: BTreeMap::new(),
        }
    }

    /// Declare range partitioning (before loading).
    pub fn with_partitioning(mut self, p: RangePartitioning) -> Self {
        self.partitioning = Some(p);
        self
    }

    /// Declare HG indexes on named columns (before loading).
    pub fn with_hg_indexes(mut self, cols: &[&str]) -> Self {
        for name in cols {
            let idx = self.schema.col(name).expect("HG column must exist");
            self.hg_columns.push(idx);
        }
        self
    }

    /// Logical page of `(group, column)`.
    pub fn page_id(&self, group: usize, col: usize) -> PageId {
        PageId((group * self.schema.len() + col) as u64)
    }

    /// Total rows.
    pub fn row_count(&self) -> u64 {
        self.groups.iter().map(|g| g.rows as u64).sum()
    }

    /// Total pages.
    pub fn page_count(&self) -> u64 {
        (self.groups.len() * self.schema.len()) as u64
    }

    /// Scan: read `projection` columns for rows passing `pred`, consulting
    /// zone maps to skip groups and prefetching ahead of the read point.
    ///
    /// The degree of morsel parallelism comes from the store (see
    /// [`PageStore::scan_parallelism`]); output is identical to a serial
    /// scan regardless of worker count. Runs the two-phase
    /// late-materialization protocol (DESIGN.md §6h).
    pub fn scan(
        &self,
        store: &dyn PageStore,
        projection: &[usize],
        pred: Option<&Expr>,
        meter: &WorkMeter,
    ) -> IqResult<Chunk> {
        self.scan_with_options(
            store,
            projection,
            pred,
            meter,
            ScanOptions {
                workers: store.scan_parallelism(),
                late_mat: true,
            },
        )
    }

    /// The scan hot path: a two-phase late-materialization morsel scan.
    ///
    /// Each surviving row group is one morsel: a worker claims it, issues
    /// its share of the speculative prefetch window (predicate pages
    /// only), demand-reads and decodes the predicate inputs, and
    /// evaluates the mask. A group whose mask comes up all-false is
    /// finished — its projection pages are never requested. Otherwise the
    /// projection pages are issued and read, and only projected columns
    /// are filtered. Per-group result chunks are stitched back in group
    /// order, so the output is byte-identical to a `workers == 1` run —
    /// and to an eager (`late_mat: false`) run.
    pub fn scan_with_options(
        &self,
        store: &dyn PageStore,
        projection: &[usize],
        pred: Option<&Expr>,
        meter: &WorkMeter,
        opts: ScanOptions,
    ) -> IqResult<Chunk> {
        let workers = opts.workers;
        let stats = store.scan_stats();

        // Columns needed: projection plus predicate inputs.
        let pred_cols: Vec<usize> = pred.map(|p| p.columns()).unwrap_or_default();
        let mut needed: Vec<usize> = projection.to_vec();
        needed.extend_from_slice(&pred_cols);
        needed.sort_unstable();
        needed.dedup();

        // Group-level pruning: per-column zone entries first; when a
        // column's zone is absent, the group's partition tag is a coarser
        // fallback summary of the partitioning column.
        let prune_checks = pred.map(|p| p.prune_checks()).unwrap_or_default();
        let mut survivors: Vec<usize> = Vec::with_capacity(self.groups.len());
        for g in 0..self.groups.len() {
            let mut by_partition = false;
            let survives = prune_checks.iter().all(|check| {
                let zone = &self.groups[g].zones[check.col()];
                if !check.may_match(zone) {
                    return false;
                }
                if matches!(zone, ZoneEntry::None) {
                    if let Some(pz) = self.partition_zone(g, check.col()) {
                        if !check.may_match(&pz) {
                            by_partition = true;
                            return false;
                        }
                    }
                }
                true
            });
            if let Some(s) = &stats {
                s.groups_considered.fetch_add(1, Ordering::Relaxed);
            }
            if survives {
                survivors.push(g);
            } else {
                if let Some(s) = &stats {
                    let pruned = if by_partition {
                        &s.groups_partition_pruned
                    } else {
                        &s.groups_zone_pruned
                    };
                    pruned.fetch_add(1, Ordering::Relaxed);
                    s.pruned_pages_skipped
                        .fetch_add(needed.len() as u64, Ordering::Relaxed);
                }
                trace::emit(EventKind::GroupPruned {
                    table: self.id.0 as u64,
                    group: g as u64,
                });
            }
        }

        // Two-phase split: phase 1 is the predicate's inputs, phase 2 the
        // projection-only remainder. A predicate without column inputs
        // (or no predicate, or `late_mat: false`) degenerates to the
        // classic eager scan: phase 1 reads everything.
        let late = opts.late_mat && !pred_cols.is_empty();
        let phase1: Vec<usize> = if late {
            pred_cols.clone()
        } else {
            needed.clone()
        };
        let phase2: Vec<usize> = if late {
            needed
                .iter()
                .copied()
                .filter(|c| phase1.binary_search(c).is_err())
                .collect()
        } else {
            Vec::new()
        };

        // Dictionary-domain filters: string columns used only under
        // equality/IN rewrite to u32-code comparisons and decode straight
        // to codes — no per-row `Arc<str>` materialization on the filter
        // path. Projected occurrences re-decode as strings from the saved
        // page image (no extra read) during assembly.
        let dict_cols: Vec<usize> = match pred {
            Some(p) if late => p.dict_eval_columns(&|c| {
                self.schema.columns[c].dtype == DataType::Str && self.dicts[c].is_some()
            }),
            _ => Vec::new(),
        };
        if !dict_cols.is_empty() {
            if let Some(s) = &stats {
                s.dict_filter_columns
                    .fetch_add(dict_cols.len() as u64, Ordering::Relaxed);
            }
        }
        let eval_pred: Option<Cow<'_, Expr>> = pred.map(|p| {
            if dict_cols.is_empty() {
                Cow::Borrowed(p)
            } else {
                Cow::Owned(p.rewrite_for_dict(&dict_cols, &|c, lit| {
                    self.dicts[c].as_ref().and_then(|d| d.lookup(lit))
                }))
            }
        });

        // Predicate evaluation sees the phase-1 chunk indexed by original
        // column ids via a remap; each projected column knows which phase
        // supplies it. All loop-invariant.
        let remap: BTreeMap<usize, usize> =
            phase1.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        enum Src {
            /// Decoded in phase 1 at this position.
            Phase1(usize),
            /// Read in the code domain in phase 1; strings re-decode from
            /// the saved page image.
            Phase1Dict(usize),
            /// Demand-read in phase 2 at this position.
            Phase2(usize),
        }
        let sources: Vec<Src> = projection
            .iter()
            .map(|c| match phase1.binary_search(c) {
                Ok(p) if dict_cols.binary_search(c).is_ok() => Src::Phase1Dict(p),
                Ok(p) => Src::Phase1(p),
                Err(_) => Src::Phase2(
                    phase2
                        .binary_search(c)
                        .expect("projected column was scheduled"),
                ),
            })
            .collect();

        // Monotone prefetch cursor: morsel `i` wants groups `i+1 ..
        // i+1+DEPTH` in flight, but overlapping windows must not re-issue
        // the same pages. `fetch_max` hands each task the not-yet-issued
        // tail of its window (disjoint ranges), so every surviving group is
        // prefetch-issued exactly once — serial or parallel. Group 0 is
        // demand-read, never prefetched, as before.
        let prefetch_cursor = AtomicUsize::new(1);
        // Speculative windows pass through admission: bounded in flight,
        // AIMD-shrunk when the store throttles, shed (degrading those
        // pages to demand loads) instead of queueing behind SlowDowns.
        // Sized from the IoCore submission depth (all survivors are
        // submitted up front, below), floored at the worker count so a
        // fault-free scan never sheds whatever the morsel count. With
        // shared reactor stats available, post-throttle regrowth tracks
        // the observed queue-depth headroom instead of the fixed ceiling.
        let depth_target = survivors.len().max(workers);
        let mut admission = PrefetchAdmission::for_depth(depth_target);
        if let Some(io) = store.io_stats() {
            admission = admission.with_io(io, depth_target);
        }

        // Every surviving morsel is submitted to the I/O core up front:
        // in-flight depth is the submitted batch, not the lane count, so
        // the `io.*` in-flight peak reports survivors — the io_uring-style
        // depth — while execution is carried by `workers` lanes.
        let mut io = IoCore::new(workers);
        if let Some(s) = store.io_stats() {
            io = io.with_stats(s);
        }
        let chunks = io.run_ordered(survivors.len(), |i| -> IqResult<Chunk> {
            let window_end = (i + 1 + PREFETCH_DEPTH).min(survivors.len());
            let issued = prefetch_cursor.fetch_max(window_end, Ordering::Relaxed);
            if issued < window_end {
                if let Some(_ticket) = admission.admit(window_end - issued) {
                    // Speculative windows carry phase-1 (predicate) pages
                    // only: whether an upcoming group's projection pages
                    // are needed at all is unknowable until its mask is
                    // evaluated.
                    let upcoming: Vec<PageId> = survivors[issued..window_end]
                        .iter()
                        .flat_map(|&ng| phase1.iter().map(move |&c| self.page_id(ng, c)))
                        .collect();
                    // Speculative read-ahead never fails the scan: a
                    // throttle-class error shrinks the admission budget
                    // and the pages arrive as demand loads instead; a
                    // real fault resurfaces at the demand read below.
                    match store.prefetch(self.id, &upcoming) {
                        Ok(()) => admission.record_success(),
                        Err(e) => admission.record_error(&e),
                    }
                }
            }
            let g = survivors[i];
            if i > 0 {
                // The worker that claimed this group's prefetch may not
                // have loaded it yet; loading it here (as a prefetch,
                // no-op when already cached) keeps the metered
                // demand/prefetch split identical to the serial scan
                // instead of depending on which worker wins the race.
                // Never gated — only speculative windows are shed.
                let own: Vec<PageId> = phase1.iter().map(|&c| self.page_id(g, c)).collect();
                if let Err(e) = store.prefetch(self.id, &own) {
                    admission.record_error(&e);
                }
            }

            // Phase 1: demand-read and decode the predicate inputs (all
            // needed columns when eager). Dictionary-domain columns keep
            // their page image for string re-decode at assembly.
            let mut bodies: Vec<Bytes> = Vec::with_capacity(phase1.len());
            let mut cols1: Vec<Col> = Vec::with_capacity(phase1.len());
            for &c in &phase1 {
                let page = store.read_page(self.id, self.page_id(g, c), true)?;
                let col = if dict_cols.binary_search(&c).is_ok() {
                    Col::I64(
                        decode_codes(&page.body)?
                            .iter()
                            .map(|&x| x as i64)
                            .collect(),
                    )
                } else {
                    decode_column(&page.body, self.dicts[c].as_ref())?
                };
                meter.add(cost::SCAN * col.len() as u64);
                if let Some(s) = &stats {
                    let read = if pred_cols.binary_search(&c).is_ok() {
                        &s.predicate_pages_read
                    } else {
                        &s.projection_pages_read
                    };
                    read.fetch_add(1, Ordering::Relaxed);
                }
                bodies.push(page.body);
                cols1.push(col);
            }
            let chunk1 = Chunk::new(cols1);
            meter.add(cost::FILTER * chunk1.len() as u64);
            let mask: Option<Vec<bool>> = match &eval_pred {
                Some(p) => Some(p.eval_mask(&chunk1, &remap)?),
                None => None,
            };

            if late {
                // The materialization decision: depends only on the
                // group's own mask — deterministic and worker-independent,
                // so the metered demand/prefetch split is identical at any
                // worker count.
                if mask.as_ref().is_some_and(|m| !m.iter().any(|&b| b)) {
                    if let Some(s) = &stats {
                        s.groups_empty_mask.fetch_add(1, Ordering::Relaxed);
                        s.projection_pages_skipped
                            .fetch_add(phase2.len() as u64, Ordering::Relaxed);
                    }
                    trace::emit(EventKind::LateMatSkip {
                        table: self.id.0 as u64,
                        group: g as u64,
                        pages_saved: phase2.len() as u64,
                    });
                    trace::emit(EventKind::ScanMorsel {
                        table: self.id.0 as u64,
                        group: g as u64,
                        rows: 0,
                    });
                    return Ok(Chunk::new(
                        projection
                            .iter()
                            .map(|&c| Col::empty(self.schema.columns[c].dtype))
                            .collect(),
                    ));
                }
                if let Some(s) = &stats {
                    s.groups_materialized.fetch_add(1, Ordering::Relaxed);
                }
                // Mask known and non-empty: issue this group's projection
                // pages (same first-group demand-read discipline as
                // phase 1).
                if !phase2.is_empty() && i > 0 {
                    let own: Vec<PageId> = phase2.iter().map(|&c| self.page_id(g, c)).collect();
                    if let Err(e) = store.prefetch(self.id, &own) {
                        admission.record_error(&e);
                    }
                }
            }

            // Phase 2: demand-read the projection-only columns.
            let mut cols2: Vec<Col> = Vec::with_capacity(phase2.len());
            for &c in &phase2 {
                let page = store.read_page(self.id, self.page_id(g, c), true)?;
                let col = decode_column(&page.body, self.dicts[c].as_ref())?;
                meter.add(cost::SCAN * col.len() as u64);
                if let Some(s) = &stats {
                    s.projection_pages_read.fetch_add(1, Ordering::Relaxed);
                }
                cols2.push(col);
            }

            // Assemble the projection. Filtering each projected column is
            // bitwise identical to filtering the whole chunk and
            // projecting, without touching predicate-only columns.
            let out: Vec<Col> = sources
                .iter()
                .map(|src| -> IqResult<Col> {
                    let full: Cow<'_, Col> = match src {
                        Src::Phase1(p) => Cow::Borrowed(chunk1.col(*p)),
                        Src::Phase1Dict(p) => {
                            Cow::Owned(decode_column(&bodies[*p], self.dicts[phase1[*p]].as_ref())?)
                        }
                        Src::Phase2(p) => Cow::Borrowed(&cols2[*p]),
                    };
                    Ok(match &mask {
                        Some(m) => full.filter(m),
                        None => full.into_owned(),
                    })
                })
                .collect::<IqResult<_>>()?;
            let rows = match &mask {
                Some(m) => m.iter().filter(|&&b| b).count() as u64,
                None => chunk1.len() as u64,
            };
            trace::emit(EventKind::ScanMorsel {
                table: self.id.0 as u64,
                group: g as u64,
                rows,
            });
            Ok(Chunk::new(out))
        })?;

        let mut out = Chunk::default();
        for chunk in chunks {
            out.append(chunk)?;
        }
        // An empty result still carries the projected arity.
        if out.cols.is_empty() {
            out = Chunk::new(
                projection
                    .iter()
                    .map(|&c| Col::empty(self.schema.columns[c].dtype))
                    .collect(),
            );
        }
        Ok(out)
    }

    /// Zone implied by a group's partition tag: when every row fell into
    /// one partition of the range partitioning on `col`, that partition's
    /// value range bounds the column even without a recorded zone entry.
    fn partition_zone(&self, group: usize, col: usize) -> Option<ZoneEntry> {
        let p = self.partitioning.as_ref()?;
        if p.column != col || p.bounds.is_empty() {
            return None;
        }
        let part = self.groups[group].partition? as usize;
        if part > p.bounds.len() {
            return None;
        }
        // Bounds are exclusive uppers over an integral domain (I64/Date),
        // so partition `k` covers `[bounds[k-1], bounds[k] - 1]`, open at
        // the extremes.
        let min = if part == 0 {
            i64::MIN
        } else {
            p.bounds[part - 1]
        };
        let max = if part == p.bounds.len() {
            i64::MAX
        } else {
            p.bounds[part] - 1
        };
        Some(ZoneEntry::Num { min, max })
    }

    /// Fetch specific rows of one column via row ids (HG index probes).
    pub fn gather_rows(
        &self,
        store: &dyn PageStore,
        col: usize,
        rows: &[u64],
        meter: &WorkMeter,
    ) -> IqResult<Col> {
        let mut out = Col::empty(self.schema.columns[col].dtype);
        let gsize = self.row_group_size as u64;
        // Batch-hint every distinct group page beyond the first before
        // the demand loop: the probes below then overlap in the store
        // instead of paying one serial GET per touched group. Mirrors
        // the scan's admission discipline — the first group is
        // demand-read, never prefetched; a shed or failed hint degrades
        // to the demand read, where a real fault resurfaces.
        let mut groups: Vec<usize> = rows.iter().map(|&r| (r / gsize) as usize).collect();
        groups.sort_unstable();
        groups.dedup();
        if groups.len() > 1 {
            let admission = PrefetchAdmission::for_depth(groups.len() - 1);
            if let Some(_ticket) = admission.admit(groups.len() - 1) {
                let pages: Vec<PageId> =
                    groups[1..].iter().map(|&g| self.page_id(g, col)).collect();
                match store.prefetch(self.id, &pages) {
                    Ok(()) => admission.record_success(),
                    Err(e) => admission.record_error(&e),
                }
            };
        }
        let mut i = 0usize;
        while i < rows.len() {
            let group = (rows[i] / gsize) as usize;
            let page = store.read_page(self.id, self.page_id(group, col), true)?;
            let column = decode_column(&page.body, self.dicts[col].as_ref())?;
            meter.add(cost::SCAN * 8);
            while i < rows.len() && (rows[i] / gsize) as usize == group {
                let local = (rows[i] % gsize) as usize;
                out.push(&column.value(local))?;
                i += 1;
            }
        }
        Ok(out)
    }
}

/// Streaming table loader: buffers rows, flushes full row groups.
pub struct TableWriter<'a> {
    meta: &'a mut TableMeta,
    store: &'a dyn PageStore,
    txn: TxnId,
    pending: Vec<Col>,
    meter: &'a WorkMeter,
}

impl<'a> TableWriter<'a> {
    /// Start loading into `meta` through `store` under `txn`.
    pub fn new(
        meta: &'a mut TableMeta,
        store: &'a dyn PageStore,
        txn: TxnId,
        meter: &'a WorkMeter,
    ) -> Self {
        let pending = meta
            .schema
            .columns
            .iter()
            .map(|c| Col::empty(c.dtype))
            .collect();
        Self {
            meta,
            store,
            txn,
            pending,
            meter,
        }
    }

    /// Append one row.
    pub fn append_row(&mut self, values: &[Value]) -> IqResult<()> {
        if values.len() != self.pending.len() {
            return Err(IqError::Invalid(format!(
                "row arity {} != schema arity {}",
                values.len(),
                self.pending.len()
            )));
        }
        for (col, v) in self.pending.iter_mut().zip(values) {
            col.push(v)?;
        }
        if self.pending[0].len() as u32 >= self.meta.row_group_size {
            self.flush_group()?;
        }
        Ok(())
    }

    fn flush_group(&mut self) -> IqResult<()> {
        let rows = self.pending[0].len() as u32;
        if rows == 0 {
            return Ok(());
        }
        let group = self.meta.groups.len();
        let base_row = self.meta.row_count();
        let ncols = self.meta.schema.len();
        let mut zones = Vec::with_capacity(ncols);

        let cols = std::mem::replace(
            &mut self.pending,
            self.meta
                .schema
                .columns
                .iter()
                .map(|c| Col::empty(c.dtype))
                .collect(),
        );
        for (c, col) in cols.iter().enumerate() {
            zones.push(ZoneEntry::of(col));
            // String columns intern through the dictionary.
            let codes: Option<Vec<u32>> = match col {
                Col::Str(vals) => {
                    let dict = self.meta.dicts[c]
                        .as_mut()
                        .expect("string column has a dictionary");
                    Some(vals.iter().map(|s| dict.encode(s)).collect())
                }
                _ => None,
            };
            let body = encode_column(col, codes.as_deref())?;
            self.meter.add(cost::LOAD * col.len() as u64);
            self.store.write_page(
                self.meta.id,
                self.meta.page_id(group, c),
                PageKind::Data,
                Bytes::from(body),
                self.txn,
            )?;
            // HG maintenance.
            if self.meta.hg_columns.contains(&c) {
                let idx = self.meta.hg_indexes.entry(c).or_default();
                match col {
                    Col::I64(v) => {
                        for (i, &key) in v.iter().enumerate() {
                            idx.insert(key, base_row + i as u64);
                        }
                    }
                    _ => {
                        return Err(IqError::Invalid(
                            "HG indexes require integer columns".into(),
                        ))
                    }
                }
            }
        }

        // Partition tag: the single partition containing every row, if any.
        let partition = self.meta.partitioning.as_ref().and_then(|p| {
            let vals: Vec<i64> = match &cols[p.column] {
                Col::I64(v) => v.clone(),
                Col::Date(v) => v.iter().map(|&x| x as i64).collect(),
                _ => return None,
            };
            let first = p.partition_of(*vals.first()?);
            vals.iter()
                .all(|&v| p.partition_of(v) == first)
                .then_some(first as u32)
        });

        self.meta.groups.push(RowGroupMeta {
            rows,
            zones,
            partition,
        });
        Ok(())
    }

    /// Flush any partial group and finish.
    pub fn finish(mut self) -> IqResult<()> {
        self.flush_group()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemPageStore;
    use crate::value::parse_date;

    fn schema() -> Schema {
        Schema::new(&[
            ("k", DataType::I64),
            ("price", DataType::F64),
            ("region", DataType::Str),
            ("d", DataType::Date),
        ])
    }

    fn load_rows(meta: &mut TableMeta, store: &MemPageStore, n: i64) {
        let meter = WorkMeter::new();
        let mut w = TableWriter::new(meta, store, TxnId(1), &meter);
        for i in 0..n {
            w.append_row(&[
                Value::I64(i),
                Value::F64(i as f64 * 1.5),
                Value::Str(if i % 2 == 0 {
                    "EAST".into()
                } else {
                    "WEST".into()
                }),
                Value::Date(parse_date("1995-01-01").unwrap() + (i % 100) as i32),
            ])
            .unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn load_and_full_scan() {
        let store = MemPageStore::new();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 200);
        assert_eq!(meta.row_count(), 200);
        assert_eq!(meta.groups.len(), 4); // 64+64+64+8
        assert_eq!(meta.groups[3].rows, 8);
        let meter = WorkMeter::new();
        let out = meta.scan(&store, &[0, 2], None, &meter).unwrap();
        assert_eq!(out.len(), 200);
        assert_eq!(out.col(0).i64s()[199], 199);
        assert_eq!(out.col(1).strs()[0].as_ref(), "EAST");
        assert!(meter.total() > 0);
    }

    #[test]
    fn scan_with_predicate_and_zone_pruning() {
        let store = MemPageStore::new();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 256);
        let meter = WorkMeter::new();
        // k < 10 touches only the first group; zone maps prune the rest.
        let pred = Expr::lt(Expr::col(0), Expr::lit_i64(10));
        let out = meta.scan(&store, &[0], Some(&pred), &meter).unwrap();
        assert_eq!(out.len(), 10);
        let pruned_work = meter.total();
        // Compare against an unprunable predicate of the same selectivity.
        let meter2 = WorkMeter::new();
        let pred2 = Expr::eq(
            Expr::modulo(Expr::col(0), Expr::lit_i64(256)),
            Expr::lit_i64(0),
        );
        meta.scan(&store, &[0], Some(&pred2), &meter2).unwrap();
        assert!(pruned_work < meter2.total(), "zone maps must reduce work");
    }

    #[test]
    fn empty_result_keeps_arity() {
        let store = MemPageStore::new();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 10);
        let meter = WorkMeter::new();
        let pred = Expr::gt(Expr::col(0), Expr::lit_i64(1_000_000));
        let out = meta.scan(&store, &[1, 2], Some(&pred), &meter).unwrap();
        assert_eq!(out.cols.len(), 2);
        assert!(out.is_empty());
    }

    #[test]
    fn hg_index_built_during_load() {
        let store = MemPageStore::new();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64).with_hg_indexes(&["k"]);
        load_rows(&mut meta, &store, 100);
        let idx = meta.hg_indexes.get(&0).unwrap();
        assert_eq!(idx.rows(), 100);
        assert_eq!(idx.lookup(42).unwrap().iter().collect::<Vec<_>>(), vec![42]);
        // Gather through the index.
        let meter = WorkMeter::new();
        let rows: Vec<u64> = idx.lookup(42).unwrap().iter().collect();
        let col = meta.gather_rows(&store, 1, &rows, &meter).unwrap();
        assert_eq!(col.f64s(), &[63.0]);
    }

    #[test]
    fn partition_tags_assigned_for_sorted_input() {
        let store = MemPageStore::new();
        let mut meta =
            TableMeta::new(TableId(1), "t", schema(), 50).with_partitioning(RangePartitioning {
                column: 0,
                bounds: vec![100, 200],
            });
        load_rows(&mut meta, &store, 300);
        // Input sorted by k: groups of 50 fall wholly into partitions.
        assert_eq!(meta.groups[0].partition, Some(0));
        assert_eq!(meta.groups[2].partition, Some(1));
        assert_eq!(meta.groups[5].partition, Some(2));
        let p = meta.partitioning.as_ref().unwrap();
        assert_eq!(p.partitions(), 3);
        assert_eq!(p.partition_of(99), 0);
        assert_eq!(p.partition_of(100), 1);
        assert_eq!(p.partition_of(250), 2);
    }

    #[test]
    fn late_mat_skips_projection_pages_on_empty_masks() {
        let store = MemPageStore::with_scan_stats();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 256); // 4 groups
        let stats = store.scan_stats().unwrap();
        let meter = WorkMeter::new();
        // Unclustered predicate (k % 64 == 5 is true somewhere in every
        // group's zone, but k == 5 matches only group 0's rows) on an
        // unprunable shape: modulo defeats the zone map entirely.
        let pred = Expr::eq(
            Expr::modulo(Expr::col(0), Expr::lit_i64(256)),
            Expr::lit_i64(5),
        );
        let out = meta
            .scan_with_options(
                &store,
                &[0, 1, 2],
                Some(&pred),
                &meter,
                ScanOptions {
                    workers: 1,
                    late_mat: true,
                },
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        // Group 0 materialized; the other three skipped their projection
        // pages (price and region: k is a predicate input).
        assert_eq!(stats.snapshot().groups_materialized, 1);
        assert_eq!(stats.snapshot().groups_empty_mask, 3);
        assert_eq!(stats.snapshot().projection_pages_skipped, 6);
        assert_eq!(stats.snapshot().predicate_pages_read, 4);
        assert_eq!(stats.snapshot().projection_pages_read, 2);
        assert_eq!(stats.gets_saved(), 6);
    }

    #[test]
    fn dict_domain_filter_matches_string_semantics() {
        let store = MemPageStore::with_scan_stats();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 200);
        let stats = store.scan_stats().unwrap();
        let meter = WorkMeter::new();
        let pred = Expr::eq(Expr::col(2), Expr::lit_str("EAST"));
        let out = meta.scan(&store, &[0, 2], Some(&pred), &meter).unwrap();
        assert_eq!(out.len(), 100);
        assert!(out.col(1).strs().iter().all(|s| s.as_ref() == "EAST"));
        assert_eq!(stats.snapshot().dict_filter_columns, 1);
        // A literal absent from the dictionary matches nothing but keeps
        // the projected arity.
        let meter = WorkMeter::new();
        let pred = Expr::eq(Expr::col(2), Expr::lit_str("NOWHERE"));
        let out = meta.scan(&store, &[0, 2], Some(&pred), &meter).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.cols.len(), 2);
    }

    #[test]
    fn partition_tag_prunes_when_zone_is_absent() {
        // Hand-build metadata whose zones were lost (None) but whose
        // groups carry partition tags: the coarser summary must still
        // prune, and untagged groups must survive.
        let store = MemPageStore::new();
        let mut meta = TableMeta::new(TableId(1), "t", Schema::new(&[("k", DataType::I64)]), 4)
            .with_partitioning(RangePartitioning {
                column: 0,
                bounds: vec![100, 200],
            });
        load_rows_i64(&mut meta, &store, &[(0..4).collect(), (100..104).collect()]);
        // Wipe the zones; tag group 0 → partition 0, group 1 → partition 1.
        for g in &mut meta.groups {
            g.zones = vec![ZoneEntry::None];
        }
        meta.groups[0].partition = Some(0);
        meta.groups[1].partition = Some(1);
        let meter = WorkMeter::new();
        let pred = Expr::ge(Expr::col(0), Expr::lit_i64(150));
        let stats_store = MemPageStore::with_scan_stats();
        // Reload pages into the stats store for observability assertions.
        let mut meta2 = TableMeta::new(TableId(1), "t", Schema::new(&[("k", DataType::I64)]), 4)
            .with_partitioning(RangePartitioning {
                column: 0,
                bounds: vec![100, 200],
            });
        load_rows_i64(
            &mut meta2,
            &stats_store,
            &[(0..4).collect(), (100..104).collect()],
        );
        for g in &mut meta2.groups {
            g.zones = vec![ZoneEntry::None];
        }
        let out = meta2.scan(&stats_store, &[0], Some(&pred), &meter).unwrap();
        // Group 0 (partition 0: values < 100) pruned by the tag; group 1
        // survives (partition 1 spans [100, 199]) and filters to empty.
        assert!(out.is_empty());
        let stats = stats_store.scan_stats().unwrap();
        assert_eq!(stats.snapshot().groups_partition_pruned, 1);
        assert_eq!(stats.snapshot().groups_zone_pruned, 0);
        // Without tags, nothing can be pruned: both groups are read.
        let meter2 = WorkMeter::new();
        let untagged = MemPageStore::with_scan_stats();
        let mut meta3 = TableMeta::new(TableId(1), "t", Schema::new(&[("k", DataType::I64)]), 4)
            .with_partitioning(RangePartitioning {
                column: 0,
                bounds: vec![100, 200],
            });
        load_rows_i64(
            &mut meta3,
            &untagged,
            &[(0..4).collect(), (100..104).collect()],
        );
        for g in &mut meta3.groups {
            g.zones = vec![ZoneEntry::None];
            g.partition = None;
        }
        meta3.scan(&untagged, &[0], Some(&pred), &meter2).unwrap();
        let stats = untagged.scan_stats().unwrap();
        assert_eq!(stats.snapshot().groups_partition_pruned, 0);
        assert_eq!(stats.snapshot().groups_zone_pruned, 0);
        // `meta`'s hand-tagged copy agrees with the straight scan result.
        let meter3 = WorkMeter::new();
        let out = meta.scan(&store, &[0], Some(&pred), &meter3).unwrap();
        assert!(out.is_empty());
    }

    fn load_rows_i64(meta: &mut TableMeta, store: &MemPageStore, groups: &[Vec<i64>]) {
        let meter = WorkMeter::new();
        let mut w = TableWriter::new(meta, store, TxnId(1), &meter);
        for g in groups {
            for &v in g {
                w.append_row(&[Value::I64(v)]).unwrap();
            }
        }
        w.finish().unwrap();
    }

    #[test]
    fn bool_zone_prunes_through_scan() {
        // Booleans never persist as pages, but their zone summaries do
        // prune derived predicates; exercise ZoneEntry::of(Bool) → Num
        // via hand-built zones on an i64 flag column (0/1).
        let store = MemPageStore::with_scan_stats();
        let mut meta = TableMeta::new(TableId(1), "t", Schema::new(&[("flag", DataType::I64)]), 4);
        load_rows_i64(&mut meta, &store, &[vec![0, 0, 0, 0], vec![0, 1, 1, 0]]);
        // Overwrite zones with what ZoneEntry::of(Col::Bool) yields.
        meta.groups[0].zones = vec![ZoneEntry::of(&Col::Bool(vec![false; 4]))];
        meta.groups[1].zones = vec![ZoneEntry::of(&Col::Bool(vec![false, true, true, false]))];
        let meter = WorkMeter::new();
        let pred = Expr::eq(Expr::col(0), Expr::lit_i64(1));
        let out = meta.scan(&store, &[0], Some(&pred), &meter).unwrap();
        assert_eq!(out.len(), 2);
        let stats = store.scan_stats().unwrap();
        // The all-false group pruned; the mixed group stayed conservative.
        assert_eq!(stats.snapshot().groups_zone_pruned, 1);
        assert_eq!(stats.snapshot().groups_materialized, 1);
    }

    #[test]
    fn gather_rows_batches_prefetch_of_touched_groups() {
        let store = MemPageStore::new();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 256); // 4 groups
        let meter = WorkMeter::new();
        let before = store.prefetched_pages();
        // Rows spread over groups 0, 2 and 3: the two groups beyond the
        // first are hinted in one batch before the demand loop.
        let col = meta.gather_rows(&store, 0, &[1, 130, 200], &meter).unwrap();
        assert_eq!(col.i64s(), &[1, 130, 200]);
        assert_eq!(store.prefetched_pages() - before, 2);
        // A single-group probe issues no hint at all.
        let before = store.prefetched_pages();
        meta.gather_rows(&store, 0, &[10, 11], &meter).unwrap();
        assert_eq!(store.prefetched_pages(), before);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let store = MemPageStore::new();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        let meter = WorkMeter::new();
        let mut w = TableWriter::new(&mut meta, &store, TxnId(1), &meter);
        assert!(w.append_row(&[Value::I64(1)]).is_err());
        assert!(w
            .append_row(&[
                Value::Str("wrong".into()),
                Value::F64(0.0),
                Value::Str("x".into()),
                Value::Date(0)
            ])
            .is_err());
    }
}
