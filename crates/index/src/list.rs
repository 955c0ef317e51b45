//! One inverted-list store, parameterised by how a row is stored.
//!
//! Build: the crate-private k-means++ trainer (`kmeans.rs`) fits coarse
//! centroids over a training sample and every vector joins its nearest
//! centroid's inverted list. Search: score the query against all
//! centroids, visit the best `nprobe` lists exhaustively — the classic
//! FAISS IVF trade-off, `nprobe ≪ nlist` buying large speedups at a small
//! recall cost (measured against [`crate::FlatIndex`] by `repro recall`).
//!
//! [`ListStore`] owns everything the two backends share: centroids,
//! lists, per-entry tombstones, training, insertion, removal, compaction,
//! centroid ranking, the list scan and the common header fields. A
//! [`RowCodec`] owns only what differs:
//!
//! * [`F32Rows`] ([`IvfIndex`], wire tag `IVF0`) keeps each row as packed
//!   F32 — already the panel shape [`Metric::score_panel`] scans, so
//!   there is nothing to decode or cache.
//! * [`ResidualCodec`] ([`PqIndex`], wire tag `PQIV`, the PLAID/IVF-SQ
//!   family) keeps `row − centroid` quantized at 4–8 bits per dimension
//!   with per-subspace scale/bias — 4 bits is a 4× compression of the F16
//!   flat matrix, 8 bits matches FAISS's `SQ8`. Search is asymmetric: the
//!   query stays full precision while rows are reconstructed into panels
//!   through the store's [`PanelCache`].
//!
//! Either way a list is parallel arrays of ids, packed rows and the
//! squared norms of the rows *as search scores them*, cached at insert so
//! cosine stays one dot product per row. Norms are derived data —
//! recomputed on deserialisation, never serialised.
//!
//! Batched search shards the inverted file across the [`Executor`]'s
//! workers *by list*: every probed list's panels are fetched once and
//! scored against all the queries probing it, and per-list partial top-k
//! results merge through the shared `TopK` order — bit-identical to
//! sequential per-query search at any worker count.

use std::collections::{HashMap, HashSet};

use crate::embed::{PanelBudget, PanelCache};
use mcqa_runtime::{run_stage, Executor};
use mcqa_util::kernel::{self, Panel};

use crate::codec::{
    decode_metric, encode_metric, put_f32s, put_u32, put_u64, put_varint, unzigzag, zigzag, Reader,
};
use crate::kmeans;
use crate::metric::Metric;
use crate::scan::QueryBlock;
use crate::tombstones::Tombstones;
use crate::{panel_rows, SearchResult, TopK, VectorStore};

/// IVF configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct IvfConfig {
    /// Number of coarse centroids (inverted lists).
    pub nlist: usize,
    /// Lists visited per query.
    pub nprobe: usize,
    /// k-means iterations.
    pub train_iters: usize,
    /// Seed for centroid initialisation.
    pub seed: u64,
}

impl Default for IvfConfig {
    /// Defaults tuned on the pipeline's own chunk embeddings (see `repro
    /// recall`): the hash-encoded text vectors cluster weakly, so a high
    /// `nprobe`/`nlist` ratio is needed to hold recall@5 ≥ 0.9 against
    /// the flat baseline. Lower `nprobe` for sharply clustered data.
    fn default() -> Self {
        Self { nlist: 64, nprobe: 48, train_iters: 8, seed: 42 }
    }
}

/// Quantized-IVF configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PqConfig {
    /// Number of coarse centroids (inverted lists).
    pub nlist: usize,
    /// Lists visited per query.
    pub nprobe: usize,
    /// k-means iterations.
    pub train_iters: usize,
    /// Residual bits per dimension (4–8).
    pub bits: usize,
    /// Dimensions per scale/bias subspace.
    pub sub_dim: usize,
    /// Seed for centroid initialisation.
    pub seed: u64,
}

impl Default for PqConfig {
    /// Defaults tuned on the pipeline's own chunk embeddings alongside
    /// [`IvfConfig`] (see `repro recall`): the weakly clustered hash
    /// embeddings need the same high `nprobe`/`nlist` ratio to hold
    /// recall@5 ≥ 0.9, and 7 residual bits keep quantization loss below
    /// the ranking noise floor at both smoke (0.01) and characterisation
    /// (0.1) scales — 6 bits dips to 0.89 at scale 0.1 for one byte less
    /// per 8 dims. Narrow subspaces (`sub_dim: 4`) fit the
    /// scale/bias to the hash embeddings' uneven per-dim ranges at no
    /// memory cost (scale/bias is per store, not per vector) and buy
    /// ~2 recall points over whole-vector fitting. Sharply clustered
    /// corpora tolerate `bits: 4` and a much lower `nprobe` (see the
    /// crossover bench).
    fn default() -> Self {
        Self { nlist: 64, nprobe: 48, train_iters: 8, bits: 7, sub_dim: 4, seed: 42 }
    }
}

/// How a [`ListStore`] stores a row: the configuration, the packed row
/// representation, how rows become F32 panel rows for
/// [`Metric::score_panel`], any training beyond the coarse centroids,
/// and the codec-specific parts of the wire format.
pub trait RowCodec: Clone + Send + Sync + Sized + 'static {
    /// The backend's configuration (carried by [`crate::IndexSpec`]).
    type Config: Clone + std::fmt::Debug + Send + Sync;
    /// Element type of a packed stored row.
    type Elem: Copy + Default + std::fmt::Debug + Send + Sync;
    /// Magic tag opening the serialised format.
    const MAGIC: &'static [u8; 4];
    /// Backend label, as in [`crate::IndexSpec::label`].
    const LABEL: &'static str;

    /// The coarse-quantiser parameters of `config` — exactly the fields
    /// of an [`IvfConfig`].
    fn coarse(config: &Self::Config) -> IvfConfig;
    /// True when the codec-specific fields of `config` are in range.
    fn valid(_config: &Self::Config) -> bool {
        true
    }
    /// Fit the codec once the coarse `centroids` are trained on `sample`.
    fn train(
        config: &Self::Config,
        dim: usize,
        metric: Metric,
        exec: &Executor,
        centroids: &[Vec<f32>],
        sample: &[Vec<f32>],
    ) -> Self;

    /// Elements per stored row.
    fn row_len(&self) -> usize;
    /// Append the stored form of `v`, a member of `centroid`'s list.
    fn encode(&self, v: &[f32], centroid: &[f32], out: &mut Vec<Self::Elem>);
    /// The stored rows as F32 panel rows when that is how they are
    /// stored; `None` when a block has to be decoded first (which the
    /// store does through its [`PanelCache`]).
    fn as_panel(rows: &[Self::Elem]) -> Option<&[f32]>;
    /// Reconstruct stored rows of `centroid`'s list into `out`, row-major.
    fn decode(&self, rows: &[Self::Elem], centroid: &[f32], out: &mut [f32]);
    /// Bytes [`VectorStore::payload_bytes`] reports on top of ids, packed
    /// rows and centroids, for a store of `entries` rows.
    fn reported_overhead(&self, _entries: usize) -> usize {
        0
    }

    /// Write the config fields of the header.
    fn put_config(config: &Self::Config, out: &mut Vec<u8>);
    /// Read what [`RowCodec::put_config`] wrote.
    fn read_config(r: &mut Reader<'_>) -> Option<Self::Config>;
    /// Write the fitted parameters (`None` before training).
    fn put_params(codec: Option<&Self>, out: &mut Vec<u8>);
    /// Read what [`RowCodec::put_params`] wrote; when `trained` is false
    /// the returned codec is discarded.
    fn read_params(
        r: &mut Reader<'_>,
        dim: usize,
        config: &Self::Config,
        trained: bool,
    ) -> Option<Self>;
    /// Write one list: its entry count and framed body.
    fn put_list(&self, ids: &[u64], rows: &[Self::Elem], out: &mut Vec<u8>);
    /// Read what [`RowCodec::put_list`] wrote: the list's ids and rows.
    fn read_list(&self, r: &mut Reader<'_>) -> Option<(Vec<u64>, Vec<Self::Elem>)>;
}

/// One inverted list: parallel arrays, one slot per entry. Tombstoned
/// entries stay resident (scored, then skipped at the top-k push) until
/// [`VectorStore::compact`].
#[derive(Debug, Clone, Default)]
struct List<E> {
    ids: Vec<u64>,
    /// `ids.len() × row_len` packed stored rows.
    rows: Vec<E>,
    norms: Vec<f32>,
    dead: Tombstones,
}

/// The inverted-list index.
#[derive(Debug, Clone)]
pub struct ListStore<C: RowCodec> {
    config: C::Config,
    dim: usize,
    metric: Metric,
    centroids: Vec<Vec<f32>>,
    /// `None` until trained.
    codec: Option<C>,
    /// One list per centroid.
    lists: Vec<List<C::Elem>>,
    /// Resident entries (live + tombstoned).
    len: usize,
    /// Resident decoded panels, keyed by list (`seg` = list index);
    /// stays empty for codecs whose rows are already panel rows.
    /// Invalidated whenever list contents change; `remove` only
    /// tombstones, so panels stay resident across it.
    cache: PanelCache,
}

/// IVF: packed F32 rows (FAISS `IndexIVFFlat`).
pub type IvfIndex = ListStore<F32Rows>;
/// Quantized IVF: coarse centroids plus 4–8-bit residual codes.
pub type PqIndex = ListStore<ResidualCodec>;

impl<C: RowCodec> ListStore<C> {
    /// Magic tag opening the serialised format.
    pub(crate) const MAGIC: &'static [u8; 4] = C::MAGIC;

    /// Create an untrained index.
    pub fn new(dim: usize, metric: Metric, config: C::Config) -> Self {
        let coarse = C::coarse(&config);
        assert!(coarse.nlist >= 1 && coarse.nprobe >= 1, "nlist and nprobe must be >= 1");
        assert!(C::valid(&config), "invalid {} config: {config:?}", C::LABEL);
        Self {
            config,
            dim,
            metric,
            centroids: Vec::new(),
            codec: None,
            lists: Vec::new(),
            len: 0,
            cache: PanelCache::default(),
        }
    }

    /// True when the coarse quantiser (and the codec) have been trained.
    pub fn is_trained(&self) -> bool {
        self.codec.is_some()
    }

    /// Number of inverted lists actually in use.
    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }

    /// Occupancy histogram (list lengths), useful for balance diagnostics.
    pub fn list_sizes(&self) -> Vec<usize> {
        self.lists.iter().map(|l| l.ids.len()).collect()
    }

    fn trained_codec(&self, op: &str) -> &C {
        self.codec.as_ref().unwrap_or_else(|| panic!("{} index: {op} before train()", C::LABEL))
    }

    /// Assign and encode one vector: (list index, stored row, norm).
    /// Deterministic, so parallel encoding commutes with serial insertion.
    fn encode_one(&self, codec: &C, v: &[f32]) -> (usize, Vec<C::Elem>, f32) {
        let c = kmeans::nearest(self.metric, &self.centroids, v);
        let mut row = Vec::with_capacity(codec.row_len());
        codec.encode(v, &self.centroids[c], &mut row);
        let norm = self.stored_sq_norm(codec, &row, &self.centroids[c]);
        (c, row, norm)
    }

    /// Squared norm of one stored row as search scores it — of the
    /// *reconstruction* where rows are decoded, so cosine's cached-norm
    /// path is bit-identical to scoring the reconstruction directly.
    fn stored_sq_norm(&self, codec: &C, row: &[C::Elem], centroid: &[f32]) -> f32 {
        match C::as_panel(row) {
            Some(row) => kernel::sq_norm(row),
            None => {
                let mut rec = vec![0.0f32; self.dim];
                codec.decode(row, centroid, &mut rec);
                kernel::sq_norm(&rec)
            }
        }
    }

    fn push_encoded(&mut self, id: u64, (list, row, norm): (usize, Vec<C::Elem>, f32)) {
        let l = &mut self.lists[list];
        l.ids.push(id);
        l.rows.extend_from_slice(&row);
        l.norms.push(norm);
        l.dead.grow_to(l.ids.len());
        self.len += 1;
    }

    /// Rewrite every list without its tombstoned entries, preserving
    /// insertion order. Centroids and codec are untouched, so live rows
    /// keep their stored form (and therefore their scores) bit for bit.
    fn drop_dead_entries(&mut self) {
        if self.tombstones() == 0 {
            return;
        }
        let row_len = self.codec.as_ref().map_or(0, C::row_len);
        for list in self.lists.iter_mut().filter(|l| l.dead.count() > 0) {
            list.dead.retain_live(&mut list.ids, 1);
            list.dead.retain_live(&mut list.rows, row_len);
            list.dead.retain_live(&mut list.norms, 1);
            self.len -= list.dead.count();
            list.dead.clear_dead();
        }
        self.cache.invalidate();
    }

    /// The `nprobe` best lists for `query`, best first (descending
    /// centroid score, ascending index on ties).
    fn ranked_lists(&self, query: &[f32]) -> Vec<usize> {
        let mut ranked: Vec<(usize, f32)> = self
            .centroids
            .iter()
            .enumerate()
            .map(|(i, c)| (i, self.metric.score(query, c)))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        ranked.truncate(C::coarse(&self.config).nprobe);
        ranked.into_iter().map(|(i, _)| i).collect()
    }

    /// Scan one inverted list for a block of queries: fetch each block of
    /// rows as a panel **once** — in place when rows are stored as panel
    /// rows, else through the resident [`PanelCache`], which replays the
    /// same [`RowCodec::decode`] output a miss produces, so residency
    /// never changes a bit — and score it against every probing query
    /// with [`Metric::score_panel`] (the same fixed-order kernel as flat
    /// search, bit-identical to per-row [`Metric::score`]), feeding the
    /// per-query top-k sets. The single-query and batched paths both come
    /// through here, so their per-row math (and therefore their results)
    /// is identical.
    fn scan_list(&self, li: usize, queries: &mut QueryBlock<'_>, scratch: &mut Vec<f32>) {
        let list = &self.lists[li];
        let codec = self.trained_codec("scan");
        let (row_len, block_rows) = (codec.row_len(), panel_rows(self.dim));
        // Budget `Auto` resolves to the whole decoded store.
        let auto_cap = self.len * self.dim * 4;
        for start in (0..list.ids.len()).step_by(block_rows) {
            let rows = start..(start + block_rows).min(list.ids.len());
            let block = &list.rows[rows.start * row_len..rows.end * row_len];
            let mut scan = |panel: &[f32]| {
                let (norms, ids) = (&list.norms[rows.clone()], &list.ids[rows.clone()]);
                let dead = &list.dead.flags()[rows.clone()];
                queries.scan(Panel::F32(panel), norms, ids, dead);
            };
            match C::as_panel(block) {
                Some(panel) => scan(panel),
                None => self.cache.with_panel(
                    li as u64,
                    start,
                    rows.len() * self.dim,
                    auto_cap,
                    scratch,
                    |buf| codec.decode(block, &self.centroids[li], buf),
                    scan,
                ),
            }
        }
    }

    /// Deserialise from [`VectorStore::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        r.expect_magic(C::MAGIC)?;
        let metric = decode_metric(r.u8()?)?;
        let dim = r.u32()? as usize;
        let config = C::read_config(&mut r)?;
        let coarse = C::coarse(&config);
        if coarse.nlist == 0 || coarse.nprobe == 0 || !C::valid(&config) {
            return None;
        }
        let trained = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let codec = C::read_params(&mut r, dim, &config, trained)?;
        let n_centroids = r.count(dim * 4)?;
        let centroids: Vec<Vec<f32>> =
            (0..n_centroids).map(|_| r.f32_vec(dim)).collect::<Option<_>>()?;
        let n_lists = r.count(4)?;
        // One list per centroid, and none before training: search indexes
        // lists by centroid and scans them through the codec.
        if n_lists != n_centroids || (!trained && n_lists != 0) {
            return None;
        }
        let mut store = Self {
            config,
            dim,
            metric,
            centroids,
            codec: trained.then_some(codec),
            lists: Vec::with_capacity(n_lists),
            len: 0,
            cache: PanelCache::default(),
        };
        for li in 0..n_lists {
            let codec = store.codec.as_ref()?;
            let (ids, rows) = codec.read_list(&mut r)?;
            // Norms are derived data: recomputed through the same path
            // insert-time caching uses, so the decoded store searches
            // bit-identically to the original.
            let (centroid, row_len, entries) = (&store.centroids[li], codec.row_len(), ids.len());
            let norms = (0..entries)
                .map(|e| {
                    store.stored_sq_norm(codec, &rows[e * row_len..(e + 1) * row_len], centroid)
                })
                .collect();
            store.len += entries;
            store.lists.push(List { ids, rows, norms, dead: Tombstones::all_live(entries) });
        }
        r.exhausted().then_some(store)
    }
}

impl<C: RowCodec> VectorStore for ListStore<C> {
    fn add(&mut self, id: u64, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "vector dimension mismatch");
        let encoded = self.encode_one(self.trained_codec("add"), vector);
        self.push_encoded(id, encoded);
        // The appended list's tail panel changed; resident copies are stale.
        self.cache.invalidate();
    }

    fn add_batch(&mut self, exec: &Executor, items: &[(u64, Vec<f32>)]) {
        let codec = self.trained_codec("add_batch");
        for (_, v) in items {
            assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        }
        // Assignment + encoding is the per-item cost and is independent
        // per vector; fan it out, then fill the lists in input order so
        // the store is bit-identical to sequential adds.
        let (encoded, _) = run_stage(exec, "list-encode", (0..items.len()).collect(), |i| {
            self.encode_one(codec, &items[i].1)
        });
        for (enc, (id, _)) in encoded.into_iter().zip(items) {
            self.push_encoded(*id, enc);
        }
        self.cache.invalidate();
    }

    /// Train the coarse quantiser with the shared k-means++ trainer
    /// (Lloyd fanned out on `exec`) and fit the codec, after which the
    /// index accepts [`VectorStore::add`]. Fewer training vectors than
    /// `nlist` shrink the list count. Panics on an empty sample.
    fn train(&mut self, exec: &Executor, training: &[Vec<f32>]) {
        // `train_centroids` refuses an empty sample and ragged vectors;
        // what it cannot know is this store's dimensionality.
        if let Some(t) = training.first() {
            assert_eq!(t.len(), self.dim, "training vector dimension mismatch");
        }
        let coarse = C::coarse(&self.config);
        let centroids = kmeans::train_centroids(
            exec,
            self.metric,
            training,
            coarse.nlist.min(training.len()),
            coarse.train_iters,
            coarse.seed,
        );
        self.codec =
            Some(C::train(&self.config, self.dim, self.metric, exec, &centroids, training));
        self.lists = centroids.iter().map(|_| List::default()).collect();
        self.centroids = centroids;
        self.len = 0;
        self.cache.invalidate();
    }

    fn needs_training(&self) -> bool {
        true
    }

    fn remove(&mut self, ids: &[u64]) -> usize {
        let targets: HashSet<u64> = ids.iter().copied().collect();
        self.lists.iter_mut().map(|l| l.dead.kill(l.ids.iter().copied(), &targets)).sum()
    }

    fn rekey(&mut self, moves: &HashMap<u64, u64>) -> usize {
        self.lists.iter_mut().map(|l| l.dead.rekey(&mut l.ids, moves)).sum()
    }

    fn tombstones(&self) -> usize {
        self.lists.iter().map(|l| l.dead.count()).sum()
    }

    fn compact(&mut self, _exec: &Executor) {
        self.drop_dead_entries();
    }

    fn boxed_clone(&self) -> Box<dyn VectorStore> {
        Box::new(self.clone())
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<SearchResult> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if k == 0 || self.len() == 0 {
            return Vec::new();
        }
        let mut block = QueryBlock::new(self.metric, [query], k);
        let mut scratch = Vec::new();
        for li in self.ranked_lists(query) {
            self.scan_list(li, &mut block, &mut scratch);
        }
        block.into_sorted().pop().expect("one query, one hit list")
    }

    fn search_batch(
        &self,
        exec: &Executor,
        queries: &[Vec<f32>],
        k: usize,
    ) -> Vec<Vec<SearchResult>> {
        for q in queries {
            assert_eq!(q.len(), self.dim, "query dimension mismatch");
        }
        if k == 0 || self.len() == 0 || queries.is_empty() {
            return vec![Vec::new(); queries.len()];
        }
        // Stage 1: rank centroids per query (independent, fan out).
        let (probes, _) = run_stage(exec, "list-rank", (0..queries.len()).collect(), |qi| {
            self.ranked_lists(&queries[qi])
        });
        // Invert to the list-centric view: which queries probe each list.
        let mut by_list: Vec<Vec<usize>> = vec![Vec::new(); self.lists.len()];
        for (qi, lists) in probes.into_iter().enumerate() {
            for li in lists {
                by_list[li].push(qi);
            }
        }
        let work: Vec<usize> = (0..self.lists.len())
            .filter(|&li| !by_list[li].is_empty() && !self.lists[li].ids.is_empty())
            .collect();
        // Stage 2: shard the inverted file across the pool by list. Each
        // task fetches its list's panels once, scores every probing
        // query, and returns per-(list, query) partial top-k sets.
        let (partials, _) = run_stage(exec, "list-scan", work, |li| {
            let qis = &by_list[li];
            let mut block =
                QueryBlock::new(self.metric, qis.iter().map(|&qi| queries[qi].as_slice()), k);
            self.scan_list(li, &mut block, &mut Vec::new());
            qis.iter().copied().zip(block.into_sorted()).collect::<Vec<_>>()
        });
        // Stage 3: merge. The global top-k of a union equals the top-k of
        // the per-list top-k's under `cmp_hits` (a total order whose ties
        // are value-identical), so this matches sequential search exactly.
        let mut topks: Vec<TopK> = (0..queries.len()).map(|_| TopK::new(k)).collect();
        for part in partials {
            for (qi, hits) in part {
                for h in hits {
                    topks[qi].push(h);
                }
            }
        }
        topks.into_iter().map(TopK::into_sorted).collect()
    }

    fn len(&self) -> usize {
        self.len - self.tombstones()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn payload_bytes(&self) -> usize {
        let rows: usize = self.lists.iter().map(|l| std::mem::size_of_val(&l.rows[..])).sum();
        let centroids = self.centroids.len() * self.dim * 4;
        let overhead = self.codec.as_ref().map_or(0, |c| c.reported_overhead(self.len));
        self.len * 8 + rows + centroids + overhead
    }

    fn set_panel_cache_budget(&mut self, budget: PanelBudget) {
        self.cache.set_budget(budget);
    }

    fn panel_cache_resident_bytes(&self) -> usize {
        self.cache.resident_bytes()
    }

    fn to_bytes(&self) -> Vec<u8> {
        if self.tombstones() > 0 {
            // The wire format is tombstone-free: serialise the live view.
            let mut live = self.clone();
            live.drop_dead_entries();
            return live.to_bytes();
        }
        let mut out = Vec::with_capacity(self.payload_bytes() + 64);
        out.extend_from_slice(C::MAGIC);
        out.push(encode_metric(self.metric));
        put_u32(&mut out, self.dim);
        C::put_config(&self.config, &mut out);
        out.push(u8::from(self.is_trained()));
        C::put_params(self.codec.as_ref(), &mut out);
        put_u32(&mut out, self.centroids.len());
        for c in &self.centroids {
            put_f32s(&mut out, c);
        }
        put_u32(&mut out, self.lists.len());
        for list in &self.lists {
            self.trained_codec("serialise lists").put_list(&list.ids, &list.rows, &mut out);
        }
        out
    }
}

/// Packed F32 rows: the stored row *is* the panel row, so blocks are
/// scanned in place and nothing is decoded or cached.
#[derive(Debug, Clone, PartialEq)]
pub struct F32Rows {
    dim: usize,
}

impl RowCodec for F32Rows {
    type Config = IvfConfig;
    type Elem = f32;
    const MAGIC: &'static [u8; 4] = b"IVF0";
    const LABEL: &'static str = "ivf";

    fn coarse(c: &IvfConfig) -> IvfConfig {
        c.clone()
    }

    fn train(
        _: &IvfConfig,
        dim: usize,
        _: Metric,
        _: &Executor,
        _: &[Vec<f32>],
        _: &[Vec<f32>],
    ) -> Self {
        Self { dim }
    }

    fn row_len(&self) -> usize {
        self.dim
    }

    fn encode(&self, v: &[f32], _centroid: &[f32], out: &mut Vec<f32>) {
        out.extend_from_slice(v);
    }

    fn as_panel(rows: &[f32]) -> Option<&[f32]> {
        Some(rows)
    }

    fn decode(&self, rows: &[f32], _centroid: &[f32], out: &mut [f32]) {
        out.copy_from_slice(rows);
    }

    fn put_config(c: &IvfConfig, out: &mut Vec<u8>) {
        put_u32(out, c.nlist);
        put_u32(out, c.nprobe);
        put_u32(out, c.train_iters);
        put_u64(out, c.seed);
    }

    fn read_config(r: &mut Reader<'_>) -> Option<IvfConfig> {
        Some(IvfConfig {
            nlist: r.u32()? as usize,
            nprobe: r.u32()? as usize,
            train_iters: r.u32()? as usize,
            seed: r.u64()?,
        })
    }

    fn put_params(_: Option<&Self>, _: &mut Vec<u8>) {}

    fn read_params(_: &mut Reader<'_>, dim: usize, _: &IvfConfig, _: bool) -> Option<Self> {
        Some(Self { dim })
    }

    /// `u32 entries`, then per entry `u64 id` + `dim` F32s.
    fn put_list(&self, ids: &[u64], rows: &[f32], out: &mut Vec<u8>) {
        put_u32(out, ids.len());
        for (e, id) in ids.iter().enumerate() {
            put_u64(out, *id);
            put_f32s(out, &rows[e * self.dim..(e + 1) * self.dim]);
        }
    }

    fn read_list(&self, r: &mut Reader<'_>) -> Option<(Vec<u64>, Vec<f32>)> {
        let entries = r.count(self.dim.checked_mul(4)?.checked_add(8)?)?;
        let mut ids = Vec::with_capacity(entries);
        let mut rows = Vec::with_capacity(entries * self.dim);
        for _ in 0..entries {
            ids.push(r.u64()?);
            rows.extend(r.f32_vec(self.dim)?);
        }
        Some((ids, rows))
    }
}

/// A uniform scalar quantizer over centroid residuals with per-subspace
/// scale/bias, bit-packing `bits` bits per dimension LSB-first.
///
/// Fitting takes each subspace's observed `[min, max]` residual range;
/// values inside the fitted range round-trip within `scale/2` per
/// dimension, values outside clamp to the range edge. A zero-width
/// subspace (constant residuals) stores `scale = 0` and decodes to the
/// constant exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualCodec {
    dim: usize,
    bits: usize,
    sub_dim: usize,
    scale: Vec<f32>,
    bias: Vec<f32>,
}

impl ResidualCodec {
    /// Fit scale/bias per subspace from training residuals. Panics on an
    /// empty sample, out-of-range `bits`, or `sub_dim == 0`.
    pub fn fit(dim: usize, bits: usize, sub_dim: usize, residuals: &[Vec<f32>]) -> Self {
        assert!((4..=8).contains(&bits), "bits must be in 4..=8, got {bits}");
        assert!(sub_dim >= 1, "sub_dim must be >= 1");
        assert!(!residuals.is_empty(), "cannot fit a codec on an empty sample");
        let n_sub = dim.div_ceil(sub_dim);
        let max_code = (1u32 << bits) - 1;
        let mut scale = vec![0.0f32; n_sub];
        let mut bias = vec![0.0f32; n_sub];
        for s in 0..n_sub {
            let lo_dim = s * sub_dim;
            let hi_dim = ((s + 1) * sub_dim).min(dim);
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for r in residuals {
                debug_assert_eq!(r.len(), dim);
                for &x in &r[lo_dim..hi_dim] {
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
            }
            if hi > lo {
                bias[s] = lo;
                scale[s] = (hi - lo) / max_code as f32;
            } else {
                // Constant (or empty) subspace: decode reproduces it exactly.
                bias[s] = if lo.is_finite() { lo } else { 0.0 };
                scale[s] = 0.0;
            }
        }
        Self { dim, bits, sub_dim, scale, bias }
    }

    /// Packed bytes per encoded vector.
    pub fn code_bytes(&self) -> usize {
        (self.dim * self.bits).div_ceil(8)
    }

    /// The decode step size for dimension `j` (0 for constant subspaces);
    /// in-range values round-trip within half of this.
    pub fn quantum(&self, j: usize) -> f32 {
        self.scale[j / self.sub_dim]
    }

    /// Quantize `residual` and append [`ResidualCodec::code_bytes`] packed
    /// bytes to `out`.
    pub fn encode_into(&self, residual: &[f32], out: &mut Vec<u8>) {
        assert_eq!(residual.len(), self.dim, "residual dimension mismatch");
        let max_code = (1u32 << self.bits) - 1;
        let mut acc = 0u32;
        let mut nbits = 0usize;
        for (j, &x) in residual.iter().enumerate() {
            let s = j / self.sub_dim;
            let code = if self.scale[s] == 0.0 {
                0
            } else {
                // NaN-safe: clamp() orders the comparison so NaN falls to
                // the lower bound via the `as` cast's saturating-to-0.
                ((x - self.bias[s]) / self.scale[s]).round().clamp(0.0, max_code as f32) as u32
            };
            acc |= code << nbits;
            nbits += self.bits;
            while nbits >= 8 {
                out.push((acc & 0xff) as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            out.push((acc & 0xff) as u8);
        }
    }

    /// Reconstruct a full-precision row into `out`: `centroid +
    /// dequantized residual`. This is the one expression every consumer
    /// (insert-time norm caching, deserialisation, search panels) decodes
    /// through, so reconstructions are bit-identical everywhere.
    pub fn decode_into(&self, codes: &[u8], centroid: &[f32], out: &mut [f32]) {
        assert_eq!(codes.len(), self.code_bytes(), "code length mismatch");
        assert_eq!(out.len(), self.dim, "output dimension mismatch");
        let mask = (1u32 << self.bits) - 1;
        let mut acc = 0u32;
        let mut nbits = 0usize;
        let mut bytes = codes.iter();
        for (j, o) in out.iter_mut().enumerate() {
            while nbits < self.bits {
                acc |= u32::from(*bytes.next().expect("code_bytes covers dim")) << nbits;
                nbits += 8;
            }
            let code = acc & mask;
            acc >>= self.bits;
            nbits -= self.bits;
            let s = j / self.sub_dim;
            *o = centroid[j] + (self.bias[s] + code as f32 * self.scale[s]);
        }
    }
}

impl RowCodec for ResidualCodec {
    type Config = PqConfig;
    type Elem = u8;
    const MAGIC: &'static [u8; 4] = b"PQIV";
    const LABEL: &'static str = "pq";

    fn coarse(c: &PqConfig) -> IvfConfig {
        IvfConfig { nlist: c.nlist, nprobe: c.nprobe, train_iters: c.train_iters, seed: c.seed }
    }

    fn valid(c: &PqConfig) -> bool {
        (4..=8).contains(&c.bits) && c.sub_dim >= 1
    }

    /// Fit scale/bias on the sample's residuals against their nearest
    /// centroid.
    fn train(
        config: &PqConfig,
        dim: usize,
        metric: Metric,
        exec: &Executor,
        centroids: &[Vec<f32>],
        sample: &[Vec<f32>],
    ) -> Self {
        let (residuals, _) = run_stage(exec, "pq-residuals", (0..sample.len()).collect(), |i| {
            let c = kmeans::nearest(metric, centroids, &sample[i]);
            sample[i].iter().zip(&centroids[c]).map(|(x, m)| x - m).collect::<Vec<f32>>()
        });
        Self::fit(dim, config.bits, config.sub_dim, &residuals)
    }

    fn row_len(&self) -> usize {
        self.code_bytes()
    }

    fn encode(&self, v: &[f32], centroid: &[f32], out: &mut Vec<u8>) {
        let residual: Vec<f32> = v.iter().zip(centroid).map(|(x, m)| x - m).collect();
        self.encode_into(&residual, out);
    }

    fn as_panel(_: &[u8]) -> Option<&[f32]> {
        None
    }

    fn decode(&self, rows: &[u8], centroid: &[f32], out: &mut [f32]) {
        let (code_bytes, dim) = (self.code_bytes().max(1), self.dim.max(1));
        for (codes, out) in rows.chunks_exact(code_bytes).zip(out.chunks_exact_mut(dim)) {
            self.decode_into(codes, centroid, out);
        }
    }

    /// The cached reconstruction norms plus scale/bias.
    fn reported_overhead(&self, entries: usize) -> usize {
        (entries + self.scale.len() + self.bias.len()) * 4
    }

    fn put_config(c: &PqConfig, out: &mut Vec<u8>) {
        put_u32(out, c.nlist);
        put_u32(out, c.nprobe);
        put_u32(out, c.train_iters);
        out.push(c.bits as u8);
        put_u32(out, c.sub_dim);
        put_u64(out, c.seed);
    }

    fn read_config(r: &mut Reader<'_>) -> Option<PqConfig> {
        Some(PqConfig {
            nlist: r.u32()? as usize,
            nprobe: r.u32()? as usize,
            train_iters: r.u32()? as usize,
            bits: r.u8()? as usize,
            sub_dim: r.u32()? as usize,
            seed: r.u64()?,
        })
    }

    /// `u32 n_sub`, then `n_sub` scales and `n_sub` biases (`n_sub = 0`
    /// before training).
    fn put_params(codec: Option<&Self>, out: &mut Vec<u8>) {
        let (scale, bias) = codec.map_or((&[][..], &[][..]), |c| (&c.scale[..], &c.bias[..]));
        put_u32(out, scale.len());
        put_f32s(out, scale);
        put_f32s(out, bias);
    }

    fn read_params(r: &mut Reader<'_>, dim: usize, c: &PqConfig, trained: bool) -> Option<Self> {
        let n_sub = r.count(8)?;
        let (scale, bias) = (r.f32_vec(n_sub)?, r.f32_vec(n_sub)?);
        let expected = if trained { dim.div_ceil(c.sub_dim) } else { 0 };
        (n_sub == expected).then_some(Self { dim, bits: c.bits, sub_dim: c.sub_dim, scale, bias })
    }

    /// `u32 entries`, `u32 body length`, then the body: delta + zigzag
    /// varint ids followed by the packed codes, so the serialised store
    /// stays close to `bits/8` bytes per dimension.
    fn put_list(&self, ids: &[u64], rows: &[u8], out: &mut Vec<u8>) {
        put_u32(out, ids.len());
        let mut body = Vec::with_capacity(ids.len() * 2 + rows.len());
        let mut prev = 0i64;
        for &id in ids {
            // Wrapping, so ids ≥ 2⁶³ round-trip (as in the lexical index
            // and the ingest manifest).
            put_varint(&mut body, zigzag((id as i64).wrapping_sub(prev)));
            prev = id as i64;
        }
        body.extend_from_slice(rows);
        put_u32(out, body.len());
        out.extend_from_slice(&body);
    }

    fn read_list(&self, r: &mut Reader<'_>) -> Option<(Vec<u64>, Vec<u8>)> {
        let entries = r.count(self.code_bytes().max(1))?;
        let body_len = r.count(1)?;
        let mut r = Reader::new(r.take(body_len)?);
        let mut ids = Vec::with_capacity(entries);
        let mut prev = 0i64;
        for _ in 0..entries {
            prev = prev.wrapping_add(unzigzag(r.varint()?));
            ids.push(prev as u64);
        }
        let codes = r.take(entries.checked_mul(self.code_bytes())?)?.to_vec();
        r.exhausted().then_some((ids, codes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode_store;
    use crate::embed::Precision;
    use crate::flat::FlatIndex;
    use mcqa_util::KeyedStochastic;

    /// Clustered synthetic vectors: `n` points around `c` centres.
    fn clustered(n: usize, centres: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let rng = KeyedStochastic::new(seed);
        (0..n)
            .map(|i| {
                let c = i % centres;
                let mut v: Vec<f32> = (0..dim)
                    .map(|j| {
                        let base = if j % centres == c { 1.0 } else { 0.0 };
                        base + 0.15 * rng.gaussian(&["g", &i.to_string(), &j.to_string()]) as f32
                    })
                    .collect();
                let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
                v.iter_mut().for_each(|x| *x /= norm);
                v
            })
            .collect()
    }

    /// What the codec-generic suite needs from a codec: a config for given
    /// coarse parameters (codec-specific fields fixed).
    trait Suite: RowCodec {
        fn config(nlist: usize, nprobe: usize, train_iters: usize, seed: u64) -> Self::Config;
    }

    impl Suite for F32Rows {
        fn config(nlist: usize, nprobe: usize, train_iters: usize, seed: u64) -> IvfConfig {
            IvfConfig { nlist, nprobe, train_iters, seed }
        }
    }

    impl Suite for ResidualCodec {
        fn config(nlist: usize, nprobe: usize, train_iters: usize, seed: u64) -> PqConfig {
            PqConfig { nlist, nprobe, train_iters, bits: 6, sub_dim: 4, seed }
        }
    }

    fn untrained<C: Suite>(dim: usize) -> ListStore<C> {
        ListStore::new(dim, Metric::Cosine, C::config(64, 48, 8, 42))
    }

    /// Trained on `data` and holding it under ids `0..n`.
    fn trained<C: Suite>(dim: usize, data: &[Vec<f32>], config: C::Config) -> ListStore<C> {
        let mut store = ListStore::<C>::new(dim, Metric::Cosine, config);
        store.train(Executor::global(), data);
        for (i, v) in data.iter().enumerate() {
            store.add(i as u64, v);
        }
        store
    }

    fn recall_against_flat<C: Suite>() {
        let dim = 32;
        let data = clustered(600, 8, dim, 7);
        let mut flat = FlatIndex::new(dim, Metric::Cosine, Precision::F32);
        for (i, v) in data.iter().enumerate() {
            flat.add(i as u64, v);
        }
        let store = trained::<C>(dim, &data, C::config(16, 4, 6, 3));
        let (mut hits, mut total) = (0usize, 0usize);
        for q in &clustered(50, 8, dim, 99) {
            let truth: HashSet<u64> = flat.search(q, 10).into_iter().map(|h| h.id).collect();
            hits += store.search(q, 10).iter().filter(|h| truth.contains(&h.id)).count();
            total += truth.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.8, "{} recall@10 = {recall}", C::LABEL);
    }

    fn deterministic_build_lands_every_vector_in_a_list<C: Suite>() {
        let dim = 8;
        let data = clustered(120, 3, dim, 9);
        let a = trained::<C>(dim, &data, C::config(6, 4, 8, 42));
        let b = trained::<C>(dim, &data, C::config(6, 4, 8, 42));
        assert_eq!(a.list_sizes(), b.list_sizes());
        assert_eq!(a.search(&data[3], 5), b.search(&data[3], 5));
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.list_sizes().iter().sum::<usize>(), 120);
        assert_eq!(a.len(), 120);
    }

    fn add_batch_is_bit_identical_to_serial_adds<C: Suite>() {
        let dim = 16;
        let data = clustered(150, 4, dim, 21);
        let items: Vec<(u64, Vec<f32>)> =
            data.iter().enumerate().map(|(i, v)| (i as u64 * 3, v.clone())).collect();
        let exec = Executor::global();
        let mut serial = untrained::<C>(dim);
        serial.train(exec, &data);
        for (id, v) in &items {
            serial.add(*id, v);
        }
        let mut batched = untrained::<C>(dim);
        batched.train(exec, &data);
        batched.add_batch(exec, &items);
        assert_eq!(batched.to_bytes(), serial.to_bytes());
    }

    fn untrained_and_degenerate_are_total<C: Suite>() {
        // An untrained index holds no vectors; searching it is a defined
        // no-op (the registry path may probe stores before they're built).
        let mut store = untrained::<C>(4);
        assert!(!store.is_trained());
        assert!(store.search(&[1.0, 0.0, 0.0, 0.0], 5).is_empty());
        assert!(store.search(&[0.0; 4], 5).is_empty(), "zero query on untrained index");
        assert!(store.search_batch(Executor::global(), &[vec![0.0; 4]], 5)[0].is_empty());
        store.train(Executor::global(), &[vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 1.0, 0.0, 0.0]]);
        assert_eq!(store.nlist(), 2, "training shrinks nlist to the sample size");
        assert!(store.search(&[1.0, 0.0, 0.0, 0.0], 5).is_empty(), "trained but empty");
        store.add(9, &[1.0, 0.0, 0.0, 0.0]);
        assert!(store.search(&[1.0, 0.0, 0.0, 0.0], 0).is_empty(), "k=0");
        assert_eq!(store.search(&[1.0, 0.0, 0.0, 0.0], 50)[0].id, 9, "k>len");
    }

    fn add_before_train_panics<C: Suite>() {
        untrained::<C>(4).add(0, &[0.0; 4]);
    }

    fn add_batch_before_train_panics<C: Suite>() {
        untrained::<C>(4).add_batch(Executor::global(), &[(0, vec![0.0; 4])]);
    }

    fn train_empty_panics<C: Suite>() {
        untrained::<C>(4).train(Executor::global(), &[]);
    }

    fn search_batch_is_identical_to_sequential<C: Suite>() {
        let dim = 16;
        let data = clustered(300, 4, dim, 21);
        let mut store = trained::<C>(dim, &data, C::config(8, 3, 4, 1));
        store.remove(&[5, 6, 7]);
        let queries = clustered(17, 4, dim, 77);
        let sequential: Vec<Vec<SearchResult>> =
            queries.iter().map(|q| store.search(q, 5)).collect();
        for workers in [1usize, 4] {
            let pool = Executor::new(workers);
            assert_eq!(store.search_batch(&pool, &queries, 5), sequential, "workers={workers}");
        }
        assert!(store.search_batch(Executor::global(), &[], 5).is_empty());
    }

    fn remove_upsert_compact_match_rebuild_with_same_training<C: Suite>() {
        let dim = 16;
        let data = clustered(120, 4, dim, 19);
        let exec = Executor::global();
        let mut store = trained::<C>(dim, &data, C::config(8, 8, 4, 2));

        let gone: Vec<u64> = (0..40).collect();
        assert_eq!(store.remove(&gone), 40);
        assert_eq!(store.remove(&gone), 0, "re-removal is a no-op");
        assert_eq!(store.len(), 80);
        assert_eq!(store.tombstones(), 40);
        let upserts: Vec<(u64, Vec<f32>)> =
            (50u64..55).map(|i| (i, data[(i as usize + 7) % data.len()].clone())).collect();
        store.upsert(exec, &upserts);
        assert_eq!(store.len(), 80, "upsert replaces, not grows");

        // Rebuild cold over the surviving rows, reusing the same trained
        // structure (same config + training sample → same centroids/codec).
        let mut rebuilt = ListStore::<C>::new(dim, Metric::Cosine, C::config(8, 8, 4, 2));
        rebuilt.train(exec, &data);
        for (i, v) in data.iter().enumerate() {
            if i >= 40 && !(50..55).contains(&i) {
                rebuilt.add(i as u64, v);
            }
        }
        rebuilt.add_batch(exec, &upserts);

        let queries = clustered(8, 4, dim, 91);
        for q in &queries {
            assert_eq!(store.search(q, 10), rebuilt.search(q, 10));
        }
        // Compaction drops the tombstones without changing results, and
        // the wire format was already tombstone-free.
        let wire = store.to_bytes();
        store.compact(exec);
        assert_eq!(store.tombstones(), 0);
        assert_eq!(store.to_bytes(), wire, "serialisation already wrote the live view");
        for q in &queries {
            assert_eq!(store.search(q, 10), rebuilt.search(q, 10), "post-compaction");
        }
    }

    fn serialisation_roundtrip_preserves_search_bits<C: Suite>() {
        let dim = 12;
        let data = clustered(160, 4, dim, 31);
        let mut store = ListStore::<C>::new(dim, Metric::Dot, C::config(8, 8, 4, 9));
        store.train(Executor::global(), &data);
        for (i, v) in data.iter().enumerate() {
            store.add(i as u64 + 5, v);
        }
        let bytes = store.to_bytes();
        let back = ListStore::<C>::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), store.len());
        assert_eq!(back.metric(), Metric::Dot);
        assert_eq!(back.list_sizes(), store.list_sizes());
        assert!(back.is_trained());
        for q in data.iter().take(8) {
            let (a, b) = (store.search(q, 7), back.search(q, 7));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "scores bit-identical");
            }
        }
        assert_eq!(back.to_bytes(), bytes, "re-serialisation is stable");
        // Corruption rejected: every truncation, a bare tag, a foreign tag.
        for cut in 0..bytes.len() {
            assert!(ListStore::<C>::from_bytes(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        assert!(ListStore::<C>::from_bytes(b"FLATxxxx").is_none());
        // Untrained round-trip.
        let back = ListStore::<C>::from_bytes(&untrained::<C>(4).to_bytes()).unwrap();
        assert!(!back.is_trained());
        assert_eq!(back.len(), 0);
    }

    fn untrained_header_with_lists_is_rejected<C: Suite>() {
        // Lists are scanned through the codec and indexed by centroid, so
        // a blob claiming lists without training must not decode.
        let mut bytes = untrained::<C>(4).to_bytes();
        let n = bytes.len();
        assert_eq!(bytes[n - 8..], [0u8; 8], "zero centroids, zero lists");
        bytes[n - 4] = 1; // one list…
        bytes.extend_from_slice(&[0u8; 8]); // …holding no entries
        assert!(ListStore::<C>::from_bytes(&bytes).is_none());
    }

    fn ids_past_i64_max_roundtrip<C: Suite>() {
        // One list (one training vector), so the delta coding sees the
        // wrap from 1 to 1 << 63 and on to u64::MAX.
        let ids = [0u64, 1, 1 << 63, u64::MAX];
        let data = clustered(4, 2, 8, 3);
        let mut store = ListStore::<C>::new(8, Metric::Cosine, C::config(1, 1, 2, 7));
        store.train(Executor::global(), &data[..1]);
        for (id, v) in ids.iter().zip(&data) {
            store.add(*id, v);
        }
        assert_eq!(store.list_sizes(), vec![4]);
        let bytes = store.to_bytes();
        let decoded = decode_store(&bytes).expect("decodes");
        for q in &data {
            let want = store.search(q, 4);
            assert_eq!(want.iter().map(|h| h.id).collect::<HashSet<_>>(), HashSet::from(ids));
            assert_eq!(decoded.search(q, 4), want);
        }
    }

    /// Instantiate the codec-generic suite for one codec.
    macro_rules! codec_suite {
        ($module:ident, $codec:ty, [$($test:ident),* $(,)?], panics: [$($panic:ident => $msg:literal),* $(,)?]) => {
            mod $module {
                use super::*;
                $(#[test] fn $test() { super::$test::<$codec>() })*
                $(#[test] #[should_panic(expected = $msg)] fn $panic() { super::$panic::<$codec>() })*
            }
        };
    }

    macro_rules! both_codecs {
        ($($body:tt)*) => {
            codec_suite!(f32_rows, F32Rows, $($body)*);
            codec_suite!(residual, ResidualCodec, $($body)*);
        };
    }

    both_codecs!(
        [
            recall_against_flat,
            deterministic_build_lands_every_vector_in_a_list,
            add_batch_is_bit_identical_to_serial_adds,
            untrained_and_degenerate_are_total,
            search_batch_is_identical_to_sequential,
            remove_upsert_compact_match_rebuild_with_same_training,
            serialisation_roundtrip_preserves_search_bits,
            untrained_header_with_lists_is_rejected,
            ids_past_i64_max_roundtrip,
        ],
        panics: [
            add_before_train_panics => "before train",
            add_batch_before_train_panics => "before train",
            train_empty_panics => "empty sample",
        ]
    );

    #[test]
    fn f32_rows_full_probe_equals_flat() {
        // nprobe == nlist ⇒ exhaustive ⇒ identical to flat search.
        let dim = 16;
        let data = clustered(200, 4, dim, 5);
        let mut flat = FlatIndex::new(dim, Metric::Cosine, Precision::F32);
        for (i, v) in data.iter().enumerate() {
            flat.add(i as u64, v);
        }
        let ivf = trained::<F32Rows>(dim, &data, F32Rows::config(8, 8, 5, 1));
        for q in clustered(10, 4, dim, 31) {
            assert_eq!(ivf.search(&q, 5), flat.search(&q, 5));
        }
        assert_eq!(ivf.panel_cache_resident_bytes(), 0, "rows are scanned in place");
    }

    #[test]
    fn residual_panels_become_resident_and_replay_bit_identically() {
        let dim = 16;
        let data = clustered(200, 4, dim, 5);
        let mut pq = trained::<ResidualCodec>(dim, &data, ResidualCodec::config(8, 8, 5, 1));
        let warm = pq.search(&data[0], 5);
        assert!(pq.panel_cache_resident_bytes() > 0);
        assert_eq!(pq.search(&data[0], 5), warm, "cache hit");
        pq.set_panel_cache_budget(PanelBudget::Bytes(0));
        assert_eq!(pq.search(&data[0], 5), warm, "uncached decode");
        assert_eq!(pq.panel_cache_resident_bytes(), 0);
    }

    #[test]
    fn residual_codec_roundtrip_within_quantum() {
        let dim = 24;
        let rng = KeyedStochastic::new(5);
        let residuals: Vec<Vec<f32>> = (0..200)
            .map(|i| {
                (0..dim)
                    .map(|j| 0.3 * rng.gaussian(&["r", &i.to_string(), &j.to_string()]) as f32)
                    .collect()
            })
            .collect();
        for bits in [4usize, 6, 8] {
            let codec = ResidualCodec::fit(dim, bits, 8, &residuals);
            assert_eq!(codec.code_bytes(), (dim * bits).div_ceil(8));
            let zero = vec![0.0f32; dim];
            let mut rec = vec![0.0f32; dim];
            for r in &residuals {
                let mut codes = Vec::new();
                codec.encode_into(r, &mut codes);
                assert_eq!(codes.len(), codec.code_bytes());
                codec.decode_into(&codes, &zero, &mut rec);
                for (j, (&x, &y)) in r.iter().zip(&rec).enumerate() {
                    let bound = codec.quantum(j) * 0.5001 + 1e-6;
                    assert!((x - y).abs() <= bound, "bits={bits} dim {j}: |{x} - {y}| > {bound}");
                }
            }
        }
    }

    #[test]
    fn residual_codec_constant_subspace_is_exact() {
        let residuals = vec![vec![0.5f32, -1.0, 0.5, -1.0]; 3];
        let codec = ResidualCodec::fit(4, 4, 2, &residuals);
        let mut codes = Vec::new();
        codec.encode_into(&residuals[0], &mut codes);
        let mut rec = vec![0.0f32; 4];
        codec.decode_into(&codes, &[0.0; 4], &mut rec);
        assert_eq!(rec, residuals[0], "zero-width ranges decode exactly");
    }

    #[test]
    fn residual_compression_beats_4x_at_4_bits() {
        // Per row: flat/F16 stores 2·dim + 8 (id) bytes, pq stores dim/2
        // (codes) + ~1 (delta-varint id); the centroid table amortises
        // away with corpus size, so the serialized ratio clears 4×.
        let dim = 32;
        let data = clustered(2_000, 8, dim, 17);
        let pq = trained::<ResidualCodec>(
            dim,
            &data,
            PqConfig { nlist: 8, nprobe: 4, train_iters: 4, bits: 4, sub_dim: 16, seed: 5 },
        );
        let mut flat = FlatIndex::new(dim, Metric::Cosine, Precision::F16);
        for (i, v) in data.iter().enumerate() {
            flat.add(i as u64, v);
        }
        let ratio = flat.to_bytes().len() as f64 / pq.to_bytes().len() as f64;
        assert!(ratio >= 4.0, "serialized compression vs flat/F16 = {ratio:.2}x");
    }
}
