//! The event-driven simulation engine.
//!
//! ## One driver
//!
//! A [`Machine`] holds the simulation state of either the whole fleet or
//! one edge's subset of the workload. [`run`], [`run_default`] and
//! [`run_sharded`] all call [`drive`], which owns the crate's only epoch
//! loop: it advances every machine to the next epoch boundary — inline
//! for one combined machine, on the exec pool for one machine per edge —
//! then applies the merged shared-tier access log under the discipline of
//! [`crate::hierarchy`]: within an epoch every shared-tier lookup reads
//! the epoch-start snapshot and mutations are logged; at the boundary the
//! log is applied in `(time, edge, eseq)` order. Without shared tiers the
//! run is a single unbounded epoch. Streams are per-edge and epoch cuts
//! and orderings never depend on how edges are grouped into machines, so
//! both fleet shapes produce byte-identical output.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;

use jcdn_obs::hash::{splitmix64, GOLDEN_GAMMA};
use jcdn_obs::metrics::{key, MetricsSnapshot};
use jcdn_obs::timeseries::{WindowSpec, WindowedCounters};
use jcdn_stats::Summary;
use jcdn_trace::{
    CacheStatus, ClientId, LogRecord, MimeType, RecordFlags, SimDuration, SimTime, Trace, UaId,
    UrlId,
};
use jcdn_workload::{ClientInfo, ObjectInfo, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::collections::HashMap;

use crate::cache::{Lookup, PolicyCache};
use crate::fault::{FaultPlan, FaultState, ResilienceConfig};
use crate::hierarchy::{
    flush_accesses, AccessKind, CacheHierarchy, Placement, SharedTier, TierAccess, MAX_SHARED_TIERS,
};
use crate::latency::LatencyModel;

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of edge servers (the paper's long-term dataset covers three
    /// vantage points).
    pub edges: usize,
    /// Per-edge cache capacity in bytes. Ignored when [`SimConfig::hierarchy`]
    /// is set (the hierarchy's edge tier wins).
    pub cache_capacity: u64,
    /// Full N-level cache hierarchy ([`CacheHierarchy::with_parent`] is the
    /// classic edge + regional parent). Takes precedence over
    /// [`SimConfig::cache_capacity`].
    pub hierarchy: Option<CacheHierarchy>,
    /// Network delays.
    pub latency: LatencyModel,
    /// Fixed CPU cost of handling one request at the edge.
    pub service_base: SimDuration,
    /// Additional CPU cost per KiB of response ("a large chunk of the total
    /// request cost is tied to CPU request processing", §4).
    pub service_per_kb: SimDuration,
    /// Fraction of requests that fail with a 5xx, drawn independently per
    /// attempt. Superseded by [`FaultPlan::errors`] when that is set.
    pub error_fraction: f64,
    /// Injected faults: outages, degradations, edge flaps, error bursts.
    pub fault: FaultPlan,
    /// Client retry policy and edge graceful degradation.
    pub resilience: ResilienceConfig,
    /// RNG seed (response sizes, latency jitter, errors).
    pub seed: u64,
    /// When set, the simulator also accumulates per-window edge/tier
    /// counters over the simulated timeline ([`SimOutput::series`]).
    /// Windowing is pure observation: it never changes the trace or the
    /// run-total stats, and the per-window counters are byte-identical
    /// across shard/thread counts (buckets are keyed by simulated arrival
    /// time, which no schedule can move).
    pub window: Option<WindowSpec>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            edges: 3,
            cache_capacity: 256 << 20,
            hierarchy: None,
            latency: LatencyModel::default(),
            service_base: SimDuration::from_micros(200),
            service_per_kb: SimDuration::from_micros(20),
            error_fraction: 0.004,
            fault: FaultPlan::default(),
            resilience: ResilienceConfig::default(),
            seed: 0x5eed,
            window: None,
        }
    }
}

impl SimConfig {
    /// The effective hierarchy: [`SimConfig::hierarchy`] when set, else a
    /// single edge tier of [`SimConfig::cache_capacity`] bytes.
    pub fn resolved_hierarchy(&self) -> CacheHierarchy {
        match &self.hierarchy {
            Some(h) => h.clone(),
            None => CacheHierarchy::single(self.cache_capacity),
        }
    }
}

/// Scheduling priority of a request at the edge.
///
/// §5.1/§7 of the paper propose deprioritizing machine-to-machine traffic
/// "since a human is not waiting for the response"; the service queue
/// serves all `Normal` requests before any `Deprioritized` one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Human-facing traffic (served first).
    #[default]
    Normal,
    /// Machine-to-machine traffic (served when no normal work waits).
    Deprioritized,
}

/// What a [`Policy`] decides about one request.
#[derive(Clone, Debug, Default)]
pub struct PolicyOutcome {
    /// Objects to prefetch into this edge's cache.
    pub prefetch: Vec<u32>,
    /// The request's scheduling priority.
    pub priority: Priority,
}

/// Everything a policy can see about one arriving request.
#[derive(Debug)]
pub struct RequestCtx<'a> {
    /// Arrival time.
    pub time: SimTime,
    /// Client index.
    pub client: u32,
    /// Requested object index.
    pub object: u32,
    /// Edge the request was routed to.
    pub edge: usize,
    /// The object universe.
    pub objects: &'a [ObjectInfo],
    /// The client population.
    pub clients: &'a [ClientInfo],
    /// Whether the object is already resident in this edge's cache.
    pub cache_resident: bool,
}

/// A per-request hook: prefetching, deprioritization, anomaly scoring.
pub trait Policy {
    /// Called for every arriving request, before cache lookup.
    fn on_request(&mut self, ctx: &RequestCtx<'_>) -> PolicyOutcome;
}

/// The default policy: no prefetch, everything `Normal`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopPolicy;

impl Policy for NoopPolicy {
    fn on_request(&mut self, _ctx: &RequestCtx<'_>) -> PolicyOutcome {
        PolicyOutcome::default()
    }
}

/// Aggregate simulation statistics.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Requests served.
    pub requests: u64,
    /// Cacheable requests served from edge cache.
    pub hits: u64,
    /// Cacheable requests fetched from origin.
    pub misses: u64,
    /// Requests for uncacheable objects (tunneled to origin).
    pub not_cacheable: u64,
    /// Total origin round trips (misses + uncacheable + prefetches).
    pub origin_fetches: u64,
    /// Per-shared-tier hits: `tier_hits[t]` counts cacheable edge misses
    /// served by shared tier `t` (0 = nearest the edge). Empty without
    /// shared tiers.
    pub tier_hits: Vec<u64>,
    /// Per-shared-tier misses: `tier_misses[t]` counts lookups that walked
    /// past tier `t` to a deeper tier or the origin. The last element is
    /// the fall-through-to-origin count.
    pub tier_misses: Vec<u64>,
    /// Prefetches issued by the policy.
    pub prefetch_issued: u64,
    /// Prefetches that completed and were inserted.
    pub prefetch_completed: u64,
    /// Demand hits on prefetched entries (usefulness numerator).
    pub prefetch_useful: u64,
    /// Response bytes served from cache.
    pub bytes_cache: u64,
    /// Response bytes fetched from origin (incl. prefetch).
    pub bytes_origin: u64,
    /// JSON-only counters (the paper's cacheability numbers are JSON-only).
    pub json_requests: u64,
    /// JSON requests served from cache.
    pub json_hits: u64,
    /// JSON cacheable requests that missed.
    pub json_misses: u64,
    /// JSON uncacheable requests.
    pub json_not_cacheable: u64,
    /// End-to-end latency of `Normal` requests (seconds).
    pub latency_normal: Summary,
    /// End-to-end latency of `Deprioritized` requests (seconds).
    pub latency_depri: Summary,
    /// Retries scheduled by failed attempts (each adds one log record).
    pub retries_issued: u64,
    /// 5xx responses with no retry after them — failures the end user saw.
    pub end_user_failures: u64,
    /// Responses answered with an expired entry inside the stale-if-error
    /// grace window because the origin was unavailable.
    pub stale_serves: u64,
    /// Lookups answered by the negative cache (fast 5xx or stale serve)
    /// without re-contacting a known-bad origin.
    pub neg_cache_serves: u64,
    /// Cache hits that had to wait for an in-flight origin fetch of the
    /// same object (request coalescing).
    pub coalesced_waits: u64,
    /// Origin attempts that failed: hard outage (503), degradation tripping
    /// the origin timeout (504), or a stochastic error (500).
    pub origin_errors: u64,
}

impl SimStats {
    /// Hit ratio over cacheable traffic.
    pub fn cacheable_hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }

    /// Hit ratio over all traffic (uncacheable requests count as misses —
    /// the operator's view of origin offload).
    pub fn overall_hit_ratio(&self) -> Option<f64> {
        (self.requests > 0).then(|| self.hits as f64 / self.requests as f64)
    }

    /// JSON-only uncacheable share (paper: ~55%).
    pub fn json_uncacheable_share(&self) -> Option<f64> {
        (self.json_requests > 0).then(|| self.json_not_cacheable as f64 / self.json_requests as f64)
    }

    /// Hit ratio of shared tier `t` over the lookups that reached it.
    pub fn tier_hit_ratio(&self, t: usize) -> Option<f64> {
        let hits = self.tier_hits.get(t).copied()?;
        let reached = hits + self.tier_misses.get(t).copied()?;
        (reached > 0).then(|| hits as f64 / reached as f64)
    }

    /// Logical requests: attempts minus the retries that re-entered the
    /// queue (i.e. the number of workload events served).
    pub fn logical_requests(&self) -> u64 {
        self.requests.saturating_sub(self.retries_issued)
    }

    /// Share of logical requests whose final answer was a 5xx.
    pub fn end_user_error_rate(&self) -> Option<f64> {
        let logical = self.logical_requests();
        (logical > 0).then(|| self.end_user_failures as f64 / logical as f64)
    }

    /// Attempts per logical request (1.0 = no retrying).
    pub fn retry_amplification(&self) -> Option<f64> {
        let logical = self.logical_requests();
        (logical > 0).then(|| self.requests as f64 / logical as f64)
    }

    /// Adds `other`'s counters and latency summaries into `self`. Every
    /// integer counter merges exactly (tier vectors merge elementwise);
    /// the latency [`Summary`]s combine via their own merge (counts exact,
    /// moments to float precision).
    pub fn merge(&mut self, other: &SimStats) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.misses += other.misses;
        self.not_cacheable += other.not_cacheable;
        self.origin_fetches += other.origin_fetches;
        merge_tier_counts(&mut self.tier_hits, &other.tier_hits);
        merge_tier_counts(&mut self.tier_misses, &other.tier_misses);
        self.prefetch_issued += other.prefetch_issued;
        self.prefetch_completed += other.prefetch_completed;
        self.prefetch_useful += other.prefetch_useful;
        self.bytes_cache += other.bytes_cache;
        self.bytes_origin += other.bytes_origin;
        self.json_requests += other.json_requests;
        self.json_hits += other.json_hits;
        self.json_misses += other.json_misses;
        self.json_not_cacheable += other.json_not_cacheable;
        self.latency_normal.merge(&other.latency_normal);
        self.latency_depri.merge(&other.latency_depri);
        self.retries_issued += other.retries_issued;
        self.end_user_failures += other.end_user_failures;
        self.stale_serves += other.stale_serves;
        self.neg_cache_serves += other.neg_cache_serves;
        self.coalesced_waits += other.coalesced_waits;
        self.origin_errors += other.origin_errors;
    }
}

/// Elementwise add, growing `into` to `from`'s length first.
fn merge_tier_counts(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (dst, src) in into.iter_mut().zip(from) {
        *dst += src;
    }
}

/// The simulator's output: the edge logs and the aggregate stats.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Request logs in arrival order (§3.1 schema).
    pub trace: Trace,
    /// Aggregate counters and latency summaries.
    pub stats: SimStats,
    /// Per-edge observability counters (`sim.hits{edge=0}`, …), keyed for
    /// the run manifest. Deterministic: every stream behind them is
    /// per-edge seeded, so the snapshot is identical for any shard or
    /// thread count (`merge` across per-edge runs equals the combined
    /// run's snapshot).
    pub metrics: MetricsSnapshot,
    /// Per-window edge/tier counters over the simulated timeline, present
    /// when [`SimConfig::window`] was set. Same key vocabulary as
    /// [`SimOutput::metrics`], bucketed by request arrival time; the
    /// per-window rows carry everything rolling availability needs
    /// (`sim.requests`, `sim.retries`, `sim.end_user_failures` per edge).
    /// Deterministic for the same reason the run totals are.
    pub series: Option<WindowedCounters>,
}

/// Per-edge counter deltas captured around one request completion, so the
/// counters mirror `SimStats` exactly without re-instrumenting every
/// branch of `complete_request`.
#[derive(Clone, Copy, Default)]
struct StatsMark {
    hits: u64,
    misses: u64,
    not_cacheable: u64,
    tier_hits: [u64; MAX_SHARED_TIERS],
    tier_misses: [u64; MAX_SHARED_TIERS],
    stale_serves: u64,
    neg_cache_serves: u64,
    coalesced_waits: u64,
    retries_issued: u64,
    origin_errors: u64,
    end_user_failures: u64,
}

/// Copies a tier-count vector into the fixed mark array.
fn tier_array(counts: &[u64]) -> [u64; MAX_SHARED_TIERS] {
    let mut a = [0u64; MAX_SHARED_TIERS];
    for (dst, src) in a.iter_mut().zip(counts) {
        *dst = *src;
    }
    a
}

impl StatsMark {
    fn capture(stats: &SimStats) -> StatsMark {
        StatsMark {
            hits: stats.hits,
            misses: stats.misses,
            not_cacheable: stats.not_cacheable,
            tier_hits: tier_array(&stats.tier_hits),
            tier_misses: tier_array(&stats.tier_misses),
            stale_serves: stats.stale_serves,
            neg_cache_serves: stats.neg_cache_serves,
            coalesced_waits: stats.coalesced_waits,
            retries_issued: stats.retries_issued,
            origin_errors: stats.origin_errors,
            end_user_failures: stats.end_user_failures,
        }
    }

    /// Adds `stats - self` into `edge`'s counter tallies.
    fn attribute(&self, stats: &SimStats, edge: &mut EdgeCounters) {
        edge.requests += 1;
        edge.hits += stats.hits - self.hits;
        edge.misses += stats.misses - self.misses;
        edge.not_cacheable += stats.not_cacheable - self.not_cacheable;
        let now_hits = tier_array(&stats.tier_hits);
        let now_misses = tier_array(&stats.tier_misses);
        for t in 0..MAX_SHARED_TIERS {
            edge.tier_hits[t] += now_hits[t] - self.tier_hits[t];
            edge.tier_misses[t] += now_misses[t] - self.tier_misses[t];
        }
        edge.stale_serves += stats.stale_serves - self.stale_serves;
        edge.neg_cache_serves += stats.neg_cache_serves - self.neg_cache_serves;
        edge.coalesced_waits += stats.coalesced_waits - self.coalesced_waits;
        edge.retries_issued += stats.retries_issued - self.retries_issued;
        edge.origin_errors += stats.origin_errors - self.origin_errors;
        edge.end_user_failures += stats.end_user_failures - self.end_user_failures;
    }
}

/// One edge's observability tallies for the run manifest.
#[derive(Clone, Copy, Default)]
struct EdgeCounters {
    requests: u64,
    hits: u64,
    misses: u64,
    not_cacheable: u64,
    tier_hits: [u64; MAX_SHARED_TIERS],
    tier_misses: [u64; MAX_SHARED_TIERS],
    stale_serves: u64,
    neg_cache_serves: u64,
    coalesced_waits: u64,
    retries_issued: u64,
    origin_errors: u64,
    end_user_failures: u64,
}

impl EdgeCounters {
    /// Converts the tallies into labeled snapshot counters. Zero-valued
    /// counters create no keys, so per-edge subset runs merge to exactly
    /// the combined run's snapshot.
    fn record_into(&self, edge: usize, snapshot: &mut MetricsSnapshot) {
        let e = edge as u64;
        snapshot.inc(&key("sim.requests", &[("edge", e)]), self.requests);
        snapshot.inc(&key("sim.hits", &[("edge", e)]), self.hits);
        snapshot.inc(&key("sim.misses", &[("edge", e)]), self.misses);
        snapshot.inc(
            &key("sim.not_cacheable", &[("edge", e)]),
            self.not_cacheable,
        );
        for (t, (&th, &tm)) in self.tier_hits.iter().zip(&self.tier_misses).enumerate() {
            let t = t as u64;
            snapshot.inc(&key("cache.tier_hits", &[("edge", e), ("tier", t)]), th);
            snapshot.inc(&key("cache.tier_misses", &[("edge", e), ("tier", t)]), tm);
        }
        snapshot.inc(&key("sim.stale_serves", &[("edge", e)]), self.stale_serves);
        snapshot.inc(
            &key("sim.neg_cache_serves", &[("edge", e)]),
            self.neg_cache_serves,
        );
        snapshot.inc(&key("sim.coalesced", &[("edge", e)]), self.coalesced_waits);
        snapshot.inc(&key("sim.retries", &[("edge", e)]), self.retries_issued);
        snapshot.inc(
            &key("sim.origin_errors", &[("edge", e)]),
            self.origin_errors,
        );
        snapshot.inc(
            &key("sim.end_user_failures", &[("edge", e)]),
            self.end_user_failures,
        );
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum InternalEvent {
    /// Edge server finished the CPU service of a queued request.
    ServiceDone { edge: usize },
    /// A prefetch fetch returned from origin.
    PrefetchDone { edge: usize, object: u32 },
    /// A client re-issues a failed request after backing off.
    Retry {
        widx: usize,
        attempt: u8,
        priority: Priority,
    },
}

/// A queued request: (priority, arrival, seq, workload index, attempt).
type QueuedRequest = (Priority, SimTime, u64, usize, u8);

struct Edge {
    cache: PolicyCache<u32>,
    busy_until: SimTime,
    /// Waiting requests, served in priority-then-arrival order.
    queue: BinaryHeap<Reverse<QueuedRequest>>,
    /// Request currently in service.
    in_service: Option<(usize, SimTime, Priority, u8)>,
    /// Origin-unavailability verdicts: object → (valid until, status).
    neg_cache: HashMap<u32, (SimTime, u16)>,
    /// Outstanding origin fetches: object → completion time, for request
    /// coalescing.
    in_flight: HashMap<u32, SimTime>,
}

/// Routes a request to an edge, skipping edges that are flapped out of
/// rotation at `t`. With no flaps this is the plain `hash % edges` of the
/// original simulator; when every edge is down, routing falls back to it
/// too (the request has to land somewhere).
fn route_edge(fault: &FaultPlan, edges: usize, ip_hash: u64, t: SimTime) -> usize {
    if fault.flaps.is_empty() {
        return (ip_hash % edges as u64) as usize;
    }
    let up: Vec<usize> = (0..edges).filter(|&e| !fault.edge_down(e, t)).collect();
    if up.is_empty() {
        return (ip_hash % edges as u64) as usize;
    }
    up[(ip_hash % up.len() as u64) as usize]
}

/// Derives a statistically independent per-edge stream seed from the base
/// seed: SplitMix64 over a golden-ratio stride.
fn edge_seed(seed: u64, edge: usize) -> u64 {
    splitmix64(seed.wrapping_add((edge as u64).wrapping_mul(GOLDEN_GAMMA)))
}

/// Smallest epoch boundary strictly after `t`.
fn next_epoch_boundary(t: SimTime, interval: SimDuration) -> SimTime {
    let iv = interval.as_micros().max(1);
    SimTime::from_micros((t.as_micros() / iv + 1).saturating_mul(iv))
}

/// The simulation state of one fleet member: every edge's caches, queues
/// and RNG streams, the event heap, the arrival cursor, and the shared-tier
/// access log. With `only_edge` set the machine skips arrivals routed to
/// any other edge, so it simulates one edge's subset of the workload;
/// [`drive`] runs either one combined machine or one machine per edge
/// through the same code.
struct Machine<'w> {
    workload: &'w Workload,
    config: &'w SimConfig,
    only_edge: Option<usize>,
    placement: Placement,
    edge_ttl_cap: Option<SimDuration>,
    edge_counters: Vec<EdgeCounters>,
    /// Per-edge, per-window tallies (bucket index → counters), filled only
    /// when [`SimConfig::window`] is set. Buckets key off the attempt's
    /// arrival time, so the tally is schedule-independent like
    /// `edge_counters`.
    window_tallies: Vec<std::collections::BTreeMap<u64, EdgeCounters>>,
    rngs: Vec<StdRng>,
    fault_states: Vec<FaultState>,
    stats: SimStats,
    edges: Vec<Edge>,
    trace: Trace,
    url_ids: Vec<UrlId>,
    ua_ids: Vec<Option<UaId>>,
    heap: BinaryHeap<Reverse<(SimTime, u64, InternalEvent)>>,
    seq: u64,
    next_arrival: usize,
    /// Shared-tier mutations recorded this epoch.
    tier_log: Vec<TierAccess>,
    /// Per-edge monotone sequence for tier-log ordering.
    eseqs: Vec<u64>,
}

impl<'w> Machine<'w> {
    fn new(
        workload: &'w Workload,
        config: &'w SimConfig,
        hierarchy: &CacheHierarchy,
        only_edge: Option<usize>,
    ) -> Machine<'w> {
        assert!(config.edges > 0, "need at least one edge");
        let shared = hierarchy.shared.len();
        let stats = SimStats {
            tier_hits: vec![0; shared],
            tier_misses: vec![0; shared],
            ..SimStats::default()
        };
        // Pre-intern all strings so ids are stable and independent of
        // policy decisions.
        let mut trace = Trace::with_capacity(workload.events.len());
        let url_ids: Vec<UrlId> = workload
            .objects
            .iter()
            .map(|o| trace.intern_url(&o.url))
            .collect();
        let ua_ids: Vec<Option<UaId>> = workload
            .clients
            .iter()
            .map(|c| c.ua.as_deref().map(|ua| trace.intern_ua(ua)))
            .collect();
        Machine {
            workload,
            config,
            only_edge,
            placement: hierarchy.placement,
            edge_ttl_cap: hierarchy.edge.ttl_cap,
            edge_counters: vec![EdgeCounters::default(); config.edges],
            window_tallies: vec![std::collections::BTreeMap::new(); config.edges],
            rngs: (0..config.edges)
                .map(|e| StdRng::seed_from_u64(edge_seed(config.seed, e)))
                .collect(),
            // The fault/error stream is separate from the main streams so
            // enabling bursts or faults never perturbs size and latency
            // draws.
            fault_states: (0..config.edges)
                .map(|e| FaultState::new(edge_seed(config.seed ^ 0xFAD7_5EED, e)))
                .collect(),
            stats,
            edges: (0..config.edges)
                .map(|e| Edge {
                    cache: PolicyCache::with_policy(
                        hierarchy.edge.capacity,
                        hierarchy.edge.policy,
                        edge_seed(config.seed ^ 0xCAC4_E5EE, e),
                    ),
                    busy_until: SimTime::ZERO,
                    queue: BinaryHeap::new(),
                    in_service: None,
                    neg_cache: HashMap::new(),
                    in_flight: HashMap::new(),
                })
                .collect(),
            trace,
            url_ids,
            ua_ids,
            heap: BinaryHeap::new(),
            seq: 0,
            next_arrival: 0,
            tier_log: Vec::new(),
            eseqs: vec![0; config.edges],
        }
    }

    /// Time of the next event this machine would process, arrival or
    /// internal. For a per-edge machine this may name an arrival that will
    /// be skipped (routed elsewhere) — which is exactly what the epoch
    /// driver needs: every machine reports the same global arrival head,
    /// so all modes compute identical epoch boundaries.
    fn next_time(&self) -> Option<SimTime> {
        let arrival = self.workload.events.get(self.next_arrival).map(|e| e.time);
        let internal = self.heap.peek().map(|Reverse((t, _, _))| *t);
        arrival.into_iter().chain(internal).min()
    }

    /// Advances to `limit` (see [`Machine::run_until`]) and hands back this
    /// epoch's shared-tier access log with the time of the next event.
    fn step(
        &mut self,
        policy: &mut dyn Policy,
        tiers: &[SharedTier],
        limit: Option<SimTime>,
    ) -> (Vec<TierAccess>, Option<SimTime>) {
        self.run_until(policy, tiers, limit);
        (std::mem::take(&mut self.tier_log), self.next_time())
    }

    /// Processes events with `time < limit` (all remaining events when
    /// `limit` is `None`). Shared-tier lookups read `tiers` as an
    /// immutable epoch snapshot; mutations land in the tier log.
    fn run_until(&mut self, policy: &mut dyn Policy, tiers: &[SharedTier], limit: Option<SimTime>) {
        let workload = self.workload;
        let config = self.config;
        // Take the earlier of the next arrival and the next internal event;
        // an arrival wins a tie.
        while let Some(now) = self.next_time().filter(|&t| limit.is_none_or(|l| t < l)) {
            let take_arrival = workload
                .events
                .get(self.next_arrival)
                .is_some_and(|e| e.time == now);
            match take_arrival {
                true => {
                    let widx = self.next_arrival;
                    self.next_arrival += 1;
                    let event = &workload.events[widx];
                    let edge_idx = route_edge(
                        &config.fault,
                        config.edges,
                        workload.clients[event.client as usize].ip_hash,
                        event.time,
                    );
                    if self.only_edge.is_some_and(|e| e != edge_idx) {
                        continue;
                    }

                    let ctx = RequestCtx {
                        time: event.time,
                        client: event.client,
                        object: event.object,
                        edge: edge_idx,
                        objects: &workload.objects,
                        clients: &workload.clients,
                        cache_resident: self.edges[edge_idx].cache.peek(event.object, event.time),
                    };
                    let outcome = policy.on_request(&ctx);

                    // Issue prefetches: only cacheable, non-resident objects.
                    for target in outcome.prefetch {
                        let tobj = &workload.objects[target as usize];
                        if !tobj.cacheable || self.edges[edge_idx].cache.peek(target, event.time) {
                            continue;
                        }
                        self.stats.prefetch_issued += 1;
                        let size = tobj.sample_size(&mut self.rngs[edge_idx]);
                        self.stats.bytes_origin += size;
                        self.stats.origin_fetches += 1;
                        let done = event.time
                            + config.latency.origin_fetch(size, &mut self.rngs[edge_idx]);
                        self.seq += 1;
                        self.heap.push(Reverse((
                            done,
                            self.seq,
                            InternalEvent::PrefetchDone {
                                edge: edge_idx,
                                object: target,
                            },
                        )));
                    }

                    self.edges[edge_idx].queue.push(Reverse((
                        outcome.priority,
                        event.time,
                        self.seq,
                        widx,
                        0,
                    )));
                    self.seq += 1;
                    dispatch(
                        &mut self.edges[edge_idx],
                        edge_idx,
                        event.time,
                        workload,
                        config,
                        &mut self.heap,
                        &mut self.seq,
                    );
                }
                false => {
                    let Some(Reverse((now, _, ev))) = self.heap.pop() else {
                        break;
                    };
                    match ev {
                        InternalEvent::PrefetchDone { edge, object } => {
                            let obj = &workload.objects[object as usize];
                            self.stats.prefetch_completed += 1;
                            // Insert only if still absent — a demand miss may
                            // have populated it meanwhile.
                            if !self.edges[edge].cache.peek(object, now) {
                                let size = obj.sample_size(&mut self.rngs[edge]);
                                self.edges[edge]
                                    .cache
                                    .insert(object, size, obj.ttl, now, true);
                            }
                        }
                        InternalEvent::Retry {
                            widx,
                            attempt,
                            priority,
                        } => {
                            // The client re-issues the request; routing
                            // happens afresh (the original edge may have
                            // flapped out).
                            let event = &workload.events[widx];
                            let edge_idx = route_edge(
                                &config.fault,
                                config.edges,
                                workload.clients[event.client as usize].ip_hash,
                                now,
                            );
                            self.edges[edge_idx]
                                .queue
                                .push(Reverse((priority, now, self.seq, widx, attempt)));
                            self.seq += 1;
                            dispatch(
                                &mut self.edges[edge_idx],
                                edge_idx,
                                now,
                                workload,
                                config,
                                &mut self.heap,
                                &mut self.seq,
                            );
                        }
                        InternalEvent::ServiceDone { edge } => {
                            let Some((widx, arrival, priority, attempt)) =
                                self.edges[edge].in_service.take()
                            else {
                                continue;
                            };
                            let mark = StatsMark::capture(&self.stats);
                            let mut tc = TierCtx {
                                tiers,
                                placement: self.placement,
                                edge_ttl_cap: self.edge_ttl_cap,
                                log: &mut self.tier_log,
                                eseq: &mut self.eseqs[edge],
                                edge_idx: edge as u32,
                            };
                            complete_request(
                                widx,
                                attempt,
                                arrival,
                                priority,
                                now,
                                workload,
                                config,
                                &mut self.edges[edge],
                                &mut tc,
                                &mut self.stats,
                                &mut self.trace,
                                &self.url_ids,
                                &self.ua_ids,
                                &mut self.rngs[edge],
                                &mut self.fault_states[edge],
                                &mut self.heap,
                                &mut self.seq,
                            );
                            mark.attribute(&self.stats, &mut self.edge_counters[edge]);
                            if let Some(spec) = &config.window {
                                // Same delta, windowed: the bucket keys off
                                // the attempt's simulated arrival time.
                                let bucket = spec.bucket_of(arrival.as_micros());
                                let tally = self.window_tallies[edge].entry(bucket).or_default();
                                mark.attribute(&self.stats, tally);
                            }
                            dispatch(
                                &mut self.edges[edge],
                                edge,
                                now,
                                workload,
                                config,
                                &mut self.heap,
                                &mut self.seq,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Folds edge-cache counters into the stats and metrics and produces
    /// the output, records still in completion order: [`merge_outputs`]
    /// sorts the run's records once. Shared-tier metrics are NOT recorded
    /// here — the driver does that exactly once per run via
    /// [`record_tier_metrics`].
    fn finish(mut self) -> SimOutput {
        // Merge cache-level prefetch-hit counters.
        for edge in &self.edges {
            self.stats.prefetch_useful += edge.cache.stats().prefetch_hits;
        }

        let mut metrics = MetricsSnapshot::default();
        for (e, counters) in self.edge_counters.iter().enumerate() {
            counters.record_into(e, &mut metrics);
        }
        for (e, edge) in self.edges.iter().enumerate() {
            record_cache_metrics(&mut metrics, &[("edge", e as u64)], edge.cache.stats());
        }
        let series = self.config.window.as_ref().map(|spec| {
            let mut series = WindowedCounters::new(*spec);
            for (e, buckets) in self.window_tallies.iter().enumerate() {
                for (&bucket, tally) in buckets {
                    let mut snapshot = MetricsSnapshot::new();
                    tally.record_into(e, &mut snapshot);
                    series.merge_bucket(bucket, &snapshot);
                }
            }
            series
        });
        SimOutput {
            trace: self.trace,
            stats: self.stats,
            metrics,
            series,
        }
    }
}

/// Records one cache's occupancy/eviction telemetry under `labels`.
/// Zero values are skipped entirely — `inc` drops them anyway, and the
/// gauge must not create a key for an idle cache, or per-edge subset runs
/// would merge to a different snapshot than the combined run.
fn record_cache_metrics(
    metrics: &mut MetricsSnapshot,
    labels: &[(&str, u64)],
    stats: crate::cache::CacheStats,
) {
    metrics.inc(&key("cache.evictions", labels), stats.evictions);
    metrics.inc(&key("cache.evicted_bytes", labels), stats.evicted_bytes);
    if stats.max_used_bytes > 0 {
        metrics.gauge_max(&key("cache.occupancy_bytes", labels), stats.max_used_bytes);
    }
}

/// Records the shared tiers' cache telemetry (hit/miss/expiry counters
/// plus occupancy and eviction gauges) labeled by tier index. Called
/// exactly once per run by whichever driver owns the tiers.
fn record_tier_metrics(metrics: &mut MetricsSnapshot, tiers: &[SharedTier]) {
    for (t, tier) in tiers.iter().enumerate() {
        let stats = tier.cache.stats();
        let labels = [("tier", t as u64)];
        record_cache_metrics(metrics, &labels, stats);
        metrics.inc(&key("cache.tier_expirations", &labels), stats.expirations);
    }
}

/// Runs the workload through the simulated CDN with the given policy.
pub fn run(workload: &Workload, config: &SimConfig, policy: &mut dyn Policy) -> SimOutput {
    drive(workload, config, policy, 1)
}

/// Runs with the no-op policy.
pub fn run_default(workload: &Workload, config: &SimConfig) -> SimOutput {
    run(workload, config, &mut NoopPolicy)
}

/// Runs with the no-op policy, fanning the edges out over a `threads`-wide
/// worker pool where [`drive`] can. The trace records and integer counters
/// equal [`run_default`]'s at any thread count (latency summaries match to
/// float merge precision).
pub fn run_sharded(workload: &Workload, config: &SimConfig, threads: usize) -> SimOutput {
    drive(workload, config, &mut NoopPolicy, threads)
}

/// The simulator's one driver: advances every machine of the fleet to each
/// epoch boundary, then applies the merged shared-tier access log (see
/// [`crate::hierarchy`]). Without shared tiers the run is a single
/// unbounded epoch, so each machine runs to completion in one step.
///
/// Every stochastic stream (sizes, latency jitter, errors/faults, cache
/// policies) is **per-edge**, derived from [`edge_seed`]; epoch cuts come
/// from the global next-event time every machine reports; and the merged
/// log is sorted by `(time, edge, eseq)` and the records canonically. So
/// one combined machine and one machine per edge produce the same bytes.
fn drive(
    workload: &Workload,
    config: &SimConfig,
    policy: &mut dyn Policy,
    threads: usize,
) -> SimOutput {
    let _span = jcdn_obs::span!("simulate.run");
    let hierarchy = config.resolved_hierarchy();
    let validation = hierarchy.validate();
    assert!(
        validation.is_ok(),
        "invalid cache hierarchy: {validation:?}"
    );
    // One machine per edge, each with a `NoopPolicy`, fanned out on the
    // pool — unless a single combined machine, run inline with the
    // caller's policy, is required:
    // * Flaps. A `Retry` re-routes at retry time, possibly to an edge
    //   whose state lives in another machine.
    // * Caller policies. A caller's `&mut dyn Policy` sees every edge.
    //   Per-edge policy instances (live prefetch, still deferred) would
    //   change what such a policy learns, and with it EXPERIMENTS.md.
    let per_edge = threads > 1 && config.edges > 1 && config.fault.flaps.is_empty();
    let fleet: Vec<Mutex<Option<Machine<'_>>>> = (0..if per_edge { config.edges } else { 1 })
        .map(|_| Mutex::new(None))
        .collect();

    let mut tiers = SharedTier::build_all(&hierarchy, config.seed);
    let interval = hierarchy.sync_interval;
    let mut limit = (!tiers.is_empty()).then(|| next_epoch_boundary(SimTime::ZERO, interval));
    loop {
        // A machine is built at its first step, so per-edge machines
        // intern their string tables in parallel on the pool.
        let step = |m: usize, policy: &mut dyn Policy| {
            lock_machine(&fleet[m])
                .get_or_insert_with(|| {
                    Machine::new(workload, config, &hierarchy, per_edge.then_some(m))
                })
                .step(policy, &tiers, limit)
        };
        let steps = if per_edge {
            jcdn_exec::scatter_gather_labeled("sim.edges", fleet.len(), threads, |e| {
                step(e, &mut NoopPolicy)
            })
        } else {
            vec![step(0, policy)]
        };
        let mut log = Vec::new();
        let mut next: Option<SimTime> = None;
        for (part, n) in steps {
            log.extend(part);
            next = next.into_iter().chain(n).min();
        }
        flush_accesses(&mut tiers, &mut log);
        // Fast-forward to the epoch holding the next event. An unbounded
        // step leaves no next event.
        let Some(next) = next else {
            break;
        };
        limit = Some(next_epoch_boundary(next, interval));
    }

    let mut out = merge_outputs(fleet.into_iter().filter_map(|slot| {
        let machine = slot
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)?;
        Some(machine.finish())
    }));
    record_tier_metrics(&mut out.metrics, &tiers);
    out
}

/// Merges machine outputs: stats and metrics add, records concatenate and
/// sort canonically — a total order in which equal-time records never
/// depend on edge interleaving, so per-edge subsets merge to exactly the
/// combined machine's log. Every machine pre-interns the full object and
/// client tables, so the interners are identical and records concatenate
/// directly. An empty fleet merges to an empty output.
fn merge_outputs(outputs: impl IntoIterator<Item = SimOutput>) -> SimOutput {
    let mut outputs = outputs.into_iter();
    let Some(SimOutput {
        trace,
        mut stats,
        mut metrics,
        mut series,
    }) = outputs.next()
    else {
        return SimOutput {
            trace: Trace::new(),
            stats: SimStats::default(),
            metrics: MetricsSnapshot::default(),
            series: None,
        };
    };
    let (interner, mut records) = trace.into_parts();
    for out in outputs {
        stats.merge(&out.stats);
        metrics.merge(&out.metrics);
        match (&mut series, out.series) {
            (Some(mine), Some(theirs)) => mine.merge(&theirs),
            (slot @ None, theirs @ Some(_)) => *slot = theirs,
            _ => {}
        }
        records.extend(out.trace.into_parts().1);
    }
    let mut trace = Trace::from_parts(interner, records);
    trace.sort_canonical();
    SimOutput {
        trace,
        stats,
        metrics,
        series,
    }
}

/// Locks a machine, recovering from a poisoned mutex (a panicked worker
/// task was already isolated and retried by the exec pool).
fn lock_machine<'a, 'w>(
    slot: &'a Mutex<Option<Machine<'w>>>,
) -> std::sync::MutexGuard<'a, Option<Machine<'w>>> {
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[allow(clippy::too_many_arguments)]
fn dispatch(
    edge: &mut Edge,
    edge_idx: usize,
    now: SimTime,
    workload: &Workload,
    config: &SimConfig,
    heap: &mut BinaryHeap<Reverse<(SimTime, u64, InternalEvent)>>,
    seq: &mut u64,
) {
    if edge.in_service.is_some() || now < edge.busy_until {
        return;
    }
    let Some(Reverse((priority, arrival, _, widx, attempt))) = edge.queue.pop() else {
        return;
    };
    let object = &workload.objects[workload.events[widx].object as usize];
    // CPU service cost: base + per-KiB of (expected) body.
    let kb = (object.size_median / 1024.0).ceil() as u64;
    let service = config.service_base
        + SimDuration::from_micros(config.service_per_kb.as_micros() * kb.max(1));
    let done = now + service;
    edge.busy_until = done;
    edge.in_service = Some((widx, arrival, priority, attempt));
    *seq += 1;
    heap.push(Reverse((
        done,
        *seq,
        InternalEvent::ServiceDone { edge: edge_idx },
    )));
}

/// How one origin attempt went (only evaluated when the origin is needed).
enum OriginAttempt {
    /// The origin answered; the response took `network` end to end.
    Reached { network: SimDuration },
    /// The origin was unreachable (503) or too slow (504); discovering that
    /// cost `latency`.
    Unavailable { status: u16, latency: SimDuration },
}

/// Attempts to reach `domain`'s origin at `now`, applying outages and
/// degradations from the fault plan. `nominal` is the healthy end-to-end
/// network latency the caller already sampled.
fn attempt_origin(
    config: &SimConfig,
    domain: u32,
    now: SimTime,
    nominal: SimDuration,
) -> OriginAttempt {
    if config.fault.outage_at(domain, now) {
        // Connection refused after one full round trip to the origin.
        return OriginAttempt::Unavailable {
            status: 503,
            latency: config.latency.client_edge_rtt + config.latency.edge_origin_rtt,
        };
    }
    match config.fault.degradation_at(domain, now) {
        None => OriginAttempt::Reached { network: nominal },
        Some(factor) => {
            let scaled = SimDuration::from_secs_f64(nominal.as_secs_f64() * factor);
            if scaled > config.resilience.origin_timeout {
                OriginAttempt::Unavailable {
                    status: 504,
                    latency: config.latency.client_edge_rtt + config.resilience.origin_timeout,
                }
            } else {
                OriginAttempt::Reached { network: scaled }
            }
        }
    }
}

/// The hierarchy context one request completion sees: the epoch-frozen
/// shared tiers, the placement rule, and the access log to append to.
struct TierCtx<'a> {
    tiers: &'a [SharedTier],
    placement: Placement,
    edge_ttl_cap: Option<SimDuration>,
    log: &'a mut Vec<TierAccess>,
    eseq: &'a mut u64,
    edge_idx: u32,
}

impl TierCtx<'_> {
    /// Appends one access to the epoch log with this edge's next sequence
    /// number.
    fn record(&mut self, time: SimTime, tier: usize, object: u32, kind: AccessKind) {
        *self.eseq += 1;
        self.log.push(TierAccess {
            time,
            edge: self.edge_idx,
            eseq: *self.eseq,
            tier: tier as u8,
            object,
            kind,
        });
    }

    /// Effective TTL at the edge tier.
    fn edge_ttl(&self, ttl: SimDuration) -> SimDuration {
        match self.edge_ttl_cap {
            Some(cap) => ttl.min(cap),
            None => ttl,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn complete_request(
    widx: usize,
    attempt: u8,
    arrival: SimTime,
    priority: Priority,
    now: SimTime,
    workload: &Workload,
    config: &SimConfig,
    edge: &mut Edge,
    tc: &mut TierCtx<'_>,
    stats: &mut SimStats,
    trace: &mut Trace,
    url_ids: &[UrlId],
    ua_ids: &[Option<UaId>],
    rng: &mut StdRng,
    fault_state: &mut FaultState,
    heap: &mut BinaryHeap<Reverse<(SimTime, u64, InternalEvent)>>,
    seq: &mut u64,
) {
    let event = &workload.events[widx];
    let object = &workload.objects[event.object as usize];
    let res = &config.resilience;
    let size = object.sample_size(rng);
    let is_json = object.mime == MimeType::Json;

    stats.requests += 1;
    if is_json {
        stats.json_requests += 1;
    }

    let mut flags = RecordFlags::NONE;
    let mut response_bytes = size;
    // Draws the stochastic per-attempt status (bursty when configured,
    // i.i.d. `error_fraction` otherwise). Only successful paths draw it —
    // origin-unavailability failures already have their status.
    let draw_status = |fs: &mut FaultState, stats: &mut SimStats| -> u16 {
        if fs.error_draw(config.fault.errors.as_ref(), config.error_fraction) {
            stats.origin_errors += 1;
            500
        } else {
            200
        }
    };

    let (cache_status, network, status) = if !object.cacheable {
        stats.not_cacheable += 1;
        if is_json {
            stats.json_not_cacheable += 1;
        }
        let nominal = config.latency.miss_latency(size, rng);
        match attempt_origin(config, object.domain, now, nominal) {
            OriginAttempt::Reached { network } => {
                stats.origin_fetches += 1;
                stats.bytes_origin += size;
                let status = draw_status(fault_state, stats);
                (CacheStatus::NotCacheable, network, status)
            }
            OriginAttempt::Unavailable { status, latency } => {
                stats.origin_errors += 1;
                response_bytes = 0;
                (CacheStatus::NotCacheable, latency, status)
            }
        }
    } else {
        match edge
            .cache
            .get_with_grace(event.object, now, res.stale_grace)
        {
            Lookup::Fresh => {
                stats.hits += 1;
                stats.bytes_cache += size;
                if is_json {
                    stats.json_hits += 1;
                }
                let mut network = config.latency.hit_latency(size, rng);
                if res.coalesce {
                    // The entry may have been inserted by a fetch that is
                    // still on the wire; this request rides it and waits.
                    if let Some(&done) = edge.in_flight.get(&event.object) {
                        if done > now {
                            flags.insert(RecordFlags::COALESCED);
                            stats.coalesced_waits += 1;
                            network = (done - now) + network;
                        }
                    }
                }
                let status = draw_status(fault_state, stats);
                (CacheStatus::Hit, network, status)
            }
            lookup => {
                let stale_available = lookup == Lookup::Stale;
                let neg_status = edge
                    .neg_cache
                    .get(&event.object)
                    .copied()
                    .filter(|&(until, _)| until > now)
                    .map(|(_, status)| status);
                // Walk the shared tiers nearest-first against the epoch
                // snapshot (side-effect-free; recency updates are logged).
                let served_tier = match neg_status {
                    Some(_) => None,
                    None => tc
                        .tiers
                        .iter()
                        .position(|tier| tier.cache.peek(event.object, now)),
                };
                if let Some(neg_status) = neg_status {
                    // The origin is known bad; answer without contacting it.
                    stats.neg_cache_serves += 1;
                    flags.insert(RecordFlags::NEG_CACHED);
                    if stale_available {
                        flags.insert(RecordFlags::SERVED_STALE);
                        stats.hits += 1;
                        stats.stale_serves += 1;
                        stats.bytes_cache += size;
                        if is_json {
                            stats.json_hits += 1;
                        }
                        let network = config.latency.hit_latency(size, rng);
                        (CacheStatus::Hit, network, 200)
                    } else {
                        stats.misses += 1;
                        if is_json {
                            stats.json_misses += 1;
                        }
                        response_bytes = 0;
                        (
                            CacheStatus::Miss,
                            config.latency.client_edge_rtt,
                            neg_status,
                        )
                    }
                } else if let Some(t) = served_tier {
                    // Tier hit: the origin is never involved. Misses at the
                    // tiers walked past, a hit at tier t.
                    stats.misses += 1;
                    stats.tier_hits[t] += 1;
                    for miss in &mut stats.tier_misses[..t] {
                        *miss += 1;
                    }
                    if is_json {
                        stats.json_misses += 1;
                    }
                    tc.record(now, t, event.object, AccessKind::Touch);
                    match tc.placement {
                        Placement::CopyEverywhere => {
                            edge.cache.insert(
                                event.object,
                                size,
                                tc.edge_ttl(object.ttl),
                                now,
                                false,
                            );
                            for up in 0..t {
                                tc.record(
                                    now,
                                    up,
                                    event.object,
                                    AccessKind::Insert {
                                        size,
                                        ttl: object.ttl,
                                    },
                                );
                            }
                        }
                        Placement::CopyDown => {
                            // One level closer to the client per hit.
                            if t == 0 {
                                edge.cache.insert(
                                    event.object,
                                    size,
                                    tc.edge_ttl(object.ttl),
                                    now,
                                    false,
                                );
                            } else {
                                tc.record(
                                    now,
                                    t - 1,
                                    event.object,
                                    AccessKind::Insert {
                                        size,
                                        ttl: object.ttl,
                                    },
                                );
                            }
                        }
                    }
                    let network = config.latency.tier_hit_latency(t, size, rng);
                    let status = draw_status(fault_state, stats);
                    (CacheStatus::Miss, network, status)
                } else {
                    let shared_tiers = tc.tiers.len();
                    let nominal = config.latency.miss_latency(size, rng);
                    match attempt_origin(config, object.domain, now, nominal) {
                        OriginAttempt::Reached { network } => {
                            stats.misses += 1;
                            for miss in &mut stats.tier_misses[..shared_tiers] {
                                *miss += 1;
                            }
                            if is_json {
                                stats.json_misses += 1;
                            }
                            stats.origin_fetches += 1;
                            stats.bytes_origin += size;
                            let edge_copy = match tc.placement {
                                Placement::CopyEverywhere => {
                                    for t in 0..shared_tiers {
                                        tc.record(
                                            now,
                                            t,
                                            event.object,
                                            AccessKind::Insert {
                                                size,
                                                ttl: object.ttl,
                                            },
                                        );
                                    }
                                    true
                                }
                                Placement::CopyDown => {
                                    // Only the deepest tier keeps a copy;
                                    // with no shared tiers the edge is the
                                    // deepest tier.
                                    match shared_tiers.checked_sub(1) {
                                        Some(deepest) => {
                                            tc.record(
                                                now,
                                                deepest,
                                                event.object,
                                                AccessKind::Insert {
                                                    size,
                                                    ttl: object.ttl,
                                                },
                                            );
                                            false
                                        }
                                        None => true,
                                    }
                                }
                            };
                            if edge_copy {
                                edge.cache.insert(
                                    event.object,
                                    size,
                                    tc.edge_ttl(object.ttl),
                                    now,
                                    false,
                                );
                                if res.coalesce {
                                    edge.in_flight.insert(event.object, now + network);
                                }
                            }
                            let status = draw_status(fault_state, stats);
                            (CacheStatus::Miss, network, status)
                        }
                        OriginAttempt::Unavailable { status, latency } => {
                            stats.origin_errors += 1;
                            if res.negative_ttl > SimDuration::ZERO {
                                edge.neg_cache
                                    .insert(event.object, (now + res.negative_ttl, status));
                            }
                            if stale_available {
                                // Stale-if-error: the expired copy beats a
                                // 5xx.
                                flags.insert(RecordFlags::SERVED_STALE);
                                stats.hits += 1;
                                stats.stale_serves += 1;
                                stats.bytes_cache += size;
                                if is_json {
                                    stats.json_hits += 1;
                                }
                                let network = config.latency.hit_latency(size, rng);
                                (CacheStatus::Hit, network, 200)
                            } else {
                                stats.misses += 1;
                                for miss in &mut stats.tier_misses[..shared_tiers] {
                                    *miss += 1;
                                }
                                if is_json {
                                    stats.json_misses += 1;
                                }
                                response_bytes = 0;
                                (CacheStatus::Miss, latency, status)
                            }
                        }
                    }
                }
            }
        }
    };

    // End-to-end latency: queueing + service (now - arrival) + network.
    let latency = (now - arrival) + network;
    match priority {
        Priority::Normal => stats.latency_normal.record(latency.as_secs_f64()),
        Priority::Deprioritized => stats.latency_depri.record(latency.as_secs_f64()),
    }

    // Client-side resilience: a failed attempt with retry budget left backs
    // off and re-enters the event queue as a fresh timestamped arrival.
    if status >= 500 {
        if attempt < res.retry_budget {
            flags.insert(RecordFlags::RETRIED);
            stats.retries_issued += 1;
            let delay = res.backoff(attempt + 1, widx as u64);
            *seq += 1;
            heap.push(Reverse((
                now + delay,
                *seq,
                InternalEvent::Retry {
                    widx,
                    attempt: attempt + 1,
                    priority,
                },
            )));
        } else {
            stats.end_user_failures += 1;
        }
    }

    trace.push(LogRecord {
        time: arrival,
        client: ClientId(workload.clients[event.client as usize].ip_hash),
        ua: ua_ids[event.client as usize],
        url: url_ids[event.object as usize],
        method: event.method,
        mime: object.mime,
        status,
        response_bytes,
        cache: cache_status,
        retries: attempt,
        flags,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{EdgeFlap, Window};
    use crate::policy::PolicyKind;
    use jcdn_workload::{build, WorkloadConfig};

    fn tiny_output() -> SimOutput {
        let w = build(&WorkloadConfig::tiny(0xFEED));
        run_default(&w, &SimConfig::default())
    }

    /// A 3-tier hierarchy (edge + regional + shield) mixing policies.
    fn three_tier(edge_policy: PolicyKind, shared_policy: PolicyKind) -> CacheHierarchy {
        use crate::hierarchy::TierSpec;
        CacheHierarchy {
            edge: TierSpec::lru("edge", 64 << 20).with_policy(edge_policy),
            shared: vec![
                TierSpec::lru("regional", 256 << 20).with_policy(shared_policy),
                TierSpec::lru("shield", 1 << 30),
            ],
            placement: Placement::CopyEverywhere,
            sync_interval: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn every_event_produces_exactly_one_log() {
        let w = build(&WorkloadConfig::tiny(1));
        let out = run_default(&w, &SimConfig::default());
        // One record per attempt: original events plus retries of failures.
        assert_eq!(
            out.trace.len() as u64,
            w.events.len() as u64 + out.stats.retries_issued
        );
        assert_eq!(
            out.stats.requests,
            w.events.len() as u64 + out.stats.retries_issued
        );
        assert_eq!(out.stats.logical_requests(), w.events.len() as u64);
        assert_eq!(
            out.stats.hits + out.stats.misses + out.stats.not_cacheable,
            out.stats.requests
        );
    }

    #[test]
    fn logs_are_time_sorted_and_carry_strings() {
        let out = tiny_output();
        assert!(out
            .trace
            .records()
            .windows(2)
            .all(|p| p[0].time <= p[1].time));
        let v = out.trace.iter().next().unwrap();
        assert!(v.url.starts_with("https://"));
    }

    #[test]
    fn cacheable_popular_objects_get_hits() {
        let out = tiny_output();
        assert!(
            out.stats.hits > 0,
            "popular objects must produce cache hits"
        );
        let ratio = out.stats.cacheable_hit_ratio().unwrap();
        assert!(ratio > 0.2, "cacheable hit ratio {ratio}");
    }

    #[test]
    fn uncacheable_objects_never_hit() {
        let w = build(&WorkloadConfig::tiny(3));
        let out = run_default(&w, &SimConfig::default());
        // Every record for an uncacheable object must be NotCacheable.
        for view in out.trace.iter() {
            let obj = w
                .objects
                .iter()
                .find(|o| o.url == view.url)
                .expect("object exists");
            if !obj.cacheable {
                assert_eq!(view.record.cache, CacheStatus::NotCacheable);
            } else {
                assert_ne!(view.record.cache, CacheStatus::NotCacheable);
            }
        }
    }

    #[test]
    fn json_uncacheable_share_matches_workload_plant() {
        let out = tiny_output();
        let share = out.stats.json_uncacheable_share().unwrap();
        assert!((0.40..0.75).contains(&share), "uncacheable share {share}");
    }

    #[test]
    fn deterministic_given_seeds() {
        let w = build(&WorkloadConfig::tiny(5));
        let a = run_default(&w, &SimConfig::default());
        let b = run_default(&w, &SimConfig::default());
        assert_eq!(a.trace.records(), b.trace.records());
        assert_eq!(a.stats.hits, b.stats.hits);
    }

    /// A fault plan that takes edge 1 out of rotation for a minute.
    fn flapping_edge() -> FaultPlan {
        FaultPlan {
            flaps: vec![EdgeFlap {
                edge: 1,
                window: Window::from_secs(30, 90),
            }],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn sharded_run_matches_the_sequential_run() {
        let w = build(&WorkloadConfig::tiny(21));
        let mut sequentials = Vec::new();
        for fault in [FaultPlan::default(), flapping_edge()] {
            let config = SimConfig {
                edges: 4,
                error_fraction: 0.02, // exercise the retry path too
                fault,
                ..SimConfig::default()
            };
            let flaps = config.fault.flaps.len();
            let sequential = run_default(&w, &config);
            for threads in [2, 4] {
                let sharded = run_sharded(&w, &config, threads);
                assert_eq!(
                    sequential.trace.records(),
                    sharded.trace.records(),
                    "{threads} threads, {flaps} flaps"
                );
                assert_eq!(sequential.stats.requests, sharded.stats.requests);
                assert_eq!(sequential.stats.hits, sharded.stats.hits);
                assert_eq!(sequential.stats.misses, sharded.stats.misses);
                assert_eq!(
                    sequential.stats.retries_issued,
                    sharded.stats.retries_issued
                );
                assert_eq!(
                    sequential.stats.end_user_failures,
                    sharded.stats.end_user_failures
                );
                assert_eq!(
                    sequential.stats.latency_normal.count(),
                    sharded.stats.latency_normal.count()
                );
                // Per-edge observability counters are part of the
                // determinism contract: the merged per-edge snapshots must
                // be byte-identical to the combined run's snapshot.
                assert_eq!(
                    sequential.metrics.counters_json(),
                    sharded.metrics.counters_json(),
                    "{threads} threads, {flaps} flaps"
                );
            }
            sequentials.push(sequential);
        }
        assert_ne!(
            sequentials[0].trace.records(),
            sequentials[1].trace.records(),
            "the flap must re-route traffic"
        );
    }

    #[test]
    fn windowed_series_is_shard_invariant_and_sums_to_totals() {
        let w = build(&WorkloadConfig::tiny(33));
        let config = SimConfig {
            edges: 4,
            error_fraction: 0.02,
            window: WindowSpec::parse("1m").ok(),
            ..SimConfig::default()
        };
        let sequential = run_default(&w, &config);
        let series = sequential.series.as_ref().expect("window requested");
        assert!(!series.is_empty());
        // The per-window counters fold back to the run totals exactly.
        assert_eq!(
            series.total().counters_json(),
            {
                // Run totals restricted to the keys EdgeCounters emits
                // (cache occupancy/eviction telemetry is not windowed).
                let mut expected = MetricsSnapshot::new();
                for (k, v) in sequential.metrics.counters() {
                    if !k.starts_with("cache.evic") {
                        expected.inc(k, v);
                    }
                }
                expected.counters_json()
            },
            "window buckets must partition the run totals"
        );
        for threads in [2, 4] {
            let sharded = run_sharded(&w, &config, threads);
            let sharded_series = sharded.series.as_ref().expect("window requested");
            assert_eq!(
                series.to_jsonl("sim"),
                sharded_series.to_jsonl("sim"),
                "per-window counters byte-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn metrics_counters_mirror_sim_stats() {
        let w = build(&WorkloadConfig::tiny(29));
        let config = SimConfig {
            edges: 3,
            error_fraction: 0.02,
            ..SimConfig::default()
        };
        let out = run_default(&w, &config);
        let total = |name: &str| out.metrics.counter_prefix_sum(name);
        assert_eq!(total("sim.requests{"), out.stats.requests);
        assert_eq!(total("sim.hits{"), out.stats.hits);
        assert_eq!(total("sim.misses{"), out.stats.misses);
        assert_eq!(total("sim.stale_serves{"), out.stats.stale_serves);
        assert_eq!(total("sim.coalesced{"), out.stats.coalesced_waits);
        assert_eq!(total("sim.retries{"), out.stats.retries_issued);
        assert_eq!(total("sim.origin_errors{"), out.stats.origin_errors);
        // More than one edge actually served traffic.
        let edges_hit = out
            .metrics
            .counters()
            .filter(|(k, _)| k.starts_with("sim.requests{"))
            .count();
        assert!(edges_hit > 1, "expected traffic on multiple edges");
    }

    #[test]
    fn tier_counters_mirror_sim_stats() {
        let w = build(&WorkloadConfig::tiny(31));
        let config = SimConfig {
            hierarchy: Some(three_tier(PolicyKind::Lru, PolicyKind::Lru)),
            ..SimConfig::default()
        };
        let out = run_default(&w, &config);
        assert_eq!(
            out.metrics.counter_prefix_sum("cache.tier_hits{"),
            out.stats.tier_hits.iter().sum::<u64>()
        );
        assert!(
            out.metrics.counter_prefix_sum("cache.evictions{") >= out.stats.tier_hits.len() as u64
                || out.metrics.counter_prefix_sum("cache.evictions{") == 0,
            "eviction counters are well-formed"
        );
    }

    #[test]
    fn sharded_run_with_parent_tier_matches_sequential() {
        let w = build(&WorkloadConfig::tiny(23));
        // A parent tier couples the edges; the driver must reproduce the
        // sequential result byte for byte, with and without a flapping
        // edge.
        for fault in [FaultPlan::default(), flapping_edge()] {
            let config = SimConfig {
                hierarchy: Some(CacheHierarchy::with_parent(
                    SimConfig::default().cache_capacity,
                    1 << 30,
                )),
                edges: 3,
                fault,
                ..SimConfig::default()
            };
            let flaps = config.fault.flaps.len();
            let sequential = run_default(&w, &config);
            assert!(sequential.stats.tier_hits[0] > 0, "parent sees traffic");
            for threads in [2, 4] {
                let sharded = run_sharded(&w, &config, threads);
                assert_eq!(
                    sequential.trace.records(),
                    sharded.trace.records(),
                    "{threads} threads, {flaps} flaps"
                );
                assert_eq!(sequential.stats.tier_hits, sharded.stats.tier_hits);
                assert_eq!(sequential.stats.tier_misses, sharded.stats.tier_misses);
                assert_eq!(
                    sequential.metrics.counters_json(),
                    sharded.metrics.counters_json(),
                    "{threads} threads, {flaps} flaps"
                );
            }
        }
    }

    #[test]
    fn three_tier_hierarchy_sharded_matches_sequential_all_policies() {
        let w = build(&WorkloadConfig::tiny(37));
        for policy in [PolicyKind::TinyLfu, PolicyKind::S3Fifo] {
            let config = SimConfig {
                edges: 4,
                hierarchy: Some(three_tier(policy, policy)),
                ..SimConfig::default()
            };
            let sequential = run_default(&w, &config);
            let sharded = run_sharded(&w, &config, 4);
            assert_eq!(
                sequential.trace.records(),
                sharded.trace.records(),
                "{policy}"
            );
            assert_eq!(
                sequential.metrics.counters_json(),
                sharded.metrics.counters_json(),
                "{policy}"
            );
        }
    }

    #[test]
    fn copy_down_keeps_first_fills_off_the_edge() {
        let w = build(&WorkloadConfig::tiny(43));
        let mut h = three_tier(PolicyKind::Lru, PolicyKind::Lru);
        h.placement = Placement::CopyDown;
        let lcd = run_default(
            &w,
            &SimConfig {
                hierarchy: Some(h),
                ..SimConfig::default()
            },
        );
        let lce = run_default(
            &w,
            &SimConfig {
                hierarchy: Some(three_tier(PolicyKind::Lru, PolicyKind::Lru)),
                ..SimConfig::default()
            },
        );
        // Under copy-down, first fills populate only the deepest tier, so
        // the edge sees fewer hits than leave-copy-everywhere.
        assert!(
            lcd.stats.hits < lce.stats.hits,
            "LCD edge hits {} must trail LCE edge hits {}",
            lcd.stats.hits,
            lce.stats.hits
        );
        // But popular objects still percolate: the edge is not empty.
        assert!(lcd.stats.hits > 0, "popular objects reach the edge");
        // And requests are conserved either way.
        assert_eq!(lcd.stats.logical_requests(), lce.stats.logical_requests());
    }

    #[test]
    fn prefetch_policy_improves_hit_ratio() {
        // A clairvoyant policy that prefetches the manifest children the
        // moment the manifest is requested.
        struct Oracle<'w> {
            workload: &'w Workload,
        }
        impl Policy for Oracle<'_> {
            fn on_request(&mut self, ctx: &RequestCtx<'_>) -> PolicyOutcome {
                let prefetch = self
                    .workload
                    .truth
                    .manifest_children
                    .get(&ctx.object)
                    .cloned()
                    .unwrap_or_default();
                PolicyOutcome {
                    prefetch,
                    priority: Priority::Normal,
                }
            }
        }
        let w = build(&WorkloadConfig::tiny(7));
        let base = run_default(&w, &SimConfig::default());
        let mut oracle = Oracle { workload: &w };
        let boosted = run(&w, &SimConfig::default(), &mut oracle);
        assert!(boosted.stats.prefetch_issued > 0);
        assert!(
            boosted.stats.prefetch_useful > 0,
            "prefetched entries must be used"
        );
        assert!(
            boosted.stats.cacheable_hit_ratio().unwrap()
                > base.stats.cacheable_hit_ratio().unwrap(),
            "prefetching must lift hit ratio: {} vs {}",
            boosted.stats.cacheable_hit_ratio().unwrap(),
            base.stats.cacheable_hit_ratio().unwrap()
        );
    }

    #[test]
    fn deprioritized_requests_wait_longer_under_load() {
        // Deprioritize periodic machine traffic; under a saturated edge the
        // normal class must see lower latency.
        struct Depri<'w> {
            workload: &'w Workload,
        }
        impl Policy for Depri<'_> {
            fn on_request(&mut self, ctx: &RequestCtx<'_>) -> PolicyOutcome {
                let machine = self
                    .workload
                    .truth
                    .periodic_pairs
                    .contains_key(&(ctx.client, ctx.object));
                PolicyOutcome {
                    prefetch: Vec::new(),
                    priority: if machine {
                        Priority::Deprioritized
                    } else {
                        Priority::Normal
                    },
                }
            }
        }
        let w = build(&WorkloadConfig::tiny(9));
        // One edge sized to ~120% utilization for this workload → real,
        // persistent queueing regardless of calibration tweaks upstream.
        let service_us =
            (1.2 * w.config.duration.as_secs_f64() / w.events.len() as f64 * 1e6) as u64;
        let config = SimConfig {
            edges: 1,
            service_base: SimDuration::from_micros(service_us.max(1)),
            service_per_kb: SimDuration::ZERO,
            ..SimConfig::default()
        };
        let mut policy = Depri { workload: &w };
        let out = run(&w, &config, &mut policy);
        let normal = out.stats.latency_normal.mean().unwrap();
        let depri = out.stats.latency_depri.mean().unwrap();
        assert!(
            depri > normal,
            "deprioritized mean {depri} must exceed normal mean {normal}"
        );
    }

    #[test]
    fn single_edge_vs_many_edges_conserves_requests() {
        let w = build(&WorkloadConfig::tiny(11));
        for edges in [1, 2, 8] {
            let out = run_default(
                &w,
                &SimConfig {
                    edges,
                    ..SimConfig::default()
                },
            );
            assert_eq!(out.stats.logical_requests(), w.events.len() as u64);
        }
    }

    #[test]
    fn parent_tier_absorbs_cross_edge_misses() {
        let w = build(&WorkloadConfig::tiny(15));
        let flat = run_default(&w, &SimConfig::default());
        let tiered = run_default(
            &w,
            &SimConfig {
                hierarchy: Some(CacheHierarchy::with_parent(
                    SimConfig::default().cache_capacity,
                    1 << 30,
                )),
                ..SimConfig::default()
            },
        );
        assert!(
            tiered.stats.tier_hits[0] > 0,
            "shared objects hit the parent"
        );
        assert_eq!(
            tiered.stats.tier_hits[0] + tiered.stats.tier_misses[0],
            tiered.stats.misses
        );
        // Edge-level hit counts are identical; the parent only changes
        // where misses are served from.
        assert_eq!(flat.stats.hits, tiered.stats.hits);
        assert!(
            tiered.stats.origin_fetches < flat.stats.origin_fetches,
            "the parent tier must offload the origin: {} vs {}",
            tiered.stats.origin_fetches,
            flat.stats.origin_fetches
        );
    }

    #[test]
    fn error_fraction_produces_5xx() {
        let w = build(&WorkloadConfig::tiny(13));
        let out = run_default(
            &w,
            &SimConfig {
                error_fraction: 0.05,
                ..SimConfig::default()
            },
        );
        let errors = out
            .trace
            .records()
            .iter()
            .filter(|r| r.status == 500)
            .count();
        let share = errors as f64 / out.trace.len() as f64;
        assert!((0.03..0.07).contains(&share), "error share {share}");
    }
}
