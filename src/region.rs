//! The front tier: one router over a fleet of regional fleets.
//!
//! Helix plans and serves one region at a time — a [`Topology`] is a single
//! cluster, a [`FleetTopology`] a single machine room.  Real deployments run
//! *several* such fleets, one per geographic region, and need a thin tier in
//! front that decides **which region** serves each request before any
//! per-region max-flow scheduling happens.  [`MultiRegionSession`] is that
//! tier.  It is generic over [`ServingFrontEnd`], so the same router drives
//! regions backed by the discrete-event simulator ([`SimSession`]), the
//! async prototype runtime ([`ServingSession`]) — or another
//! `MultiRegionSession`, though one level is all the paper's geometry needs.
//!
//! ```text
//!                    MultiRegionSession  (this module)
//!            consistent-hash ring · membership · rebalancer
//!              /             |                \
//!        region0          region1           region2
//!      SimSession /     SimSession /      SimSession /
//!     ServingSession   ServingSession    ServingSession
//!      (max-flow IWRR + prefix routing *within* the region)
//! ```
//!
//! Routing is a three-step priority, mirroring the two-tier split of the
//! per-region [`PrefixRouter`](helix_core::PrefixRouter):
//!
//! 1. **Locality** — a request tagged with [`Request::region`] goes there
//!    while the region is routable;
//! 2. **Prefix affinity** — a prefix-tagged request follows its prefix's
//!    *home region*, so sharers land on the fleet whose KV pools already
//!    hold the shared pages.  First sharer pins the home via the ring;
//! 3. **Consistent hashing** — everything else lands on the
//!    [`RegionRing`], keyed by prefix id (prefix-tagged) or request id.
//!
//! Health comes from a [`RegionDirectory`] (heartbeats decay Healthy →
//! Degraded → Down; operators can force either), and health re-weights the
//! ring: Degraded regions keep a quarter of their virtual nodes, Down
//! regions leave the ring entirely.  When a region goes down its *buffered*
//! requests are re-routed (nothing is lost), and prefixes homed there are
//! lazily re-homed on the next sharer — each re-homing priced as a
//! cross-region KV transfer over the slow inter-region link
//! ([`RegionTransferRecord`]).  [`rebalance`](MultiRegionSession::rebalance)
//! does the same eagerly for sick or load-skewed regions.
//!
//! [`Topology`]: helix_core::Topology
//! [`FleetTopology`]: helix_core::FleetTopology
//! [`SimSession`]: helix_sim::SimSession
//! [`ServingSession`]: helix_runtime::ServingSession

use crate::front::ServingFrontEnd;
use helix_cluster::{ModelConfig, ModelId, NodeId, PrefixId, Region};
use helix_core::exec_model::DEFAULT_TOKENS_PER_PAGE;
use helix_core::region::{
    InterRegionLink, MembershipOptions, RebalanceMove, RebalanceOptions, RegionDirectory,
    RegionHealth, RegionInfo, RegionLoad, RegionRebalancer, RegionRing, RegionTransferPricer,
    RegionTransferRecord, RingOptions,
};
use helix_core::{KvTransferModel, LayerRange, PrefixStats, ReplicationPolicy};
use helix_runtime::RuntimeReport;
use helix_sim::FleetRunReport;
use helix_workload::{Request, TicketId};
use std::collections::{BTreeMap, HashMap};

/// Configuration of the front tier: ring geometry, membership thresholds,
/// the inter-region link model used to price affinity moves, and the
/// rebalancer's triggers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontTierOptions {
    /// Consistent-hash ring geometry (virtual nodes, seed).
    pub ring: RingOptions,
    /// Heartbeat thresholds of the region directory.
    pub membership: MembershipOptions,
    /// Prices cross-region prefix moves (KV geometry × inter-region link).
    pub pricer: RegionTransferPricer,
    /// Skew thresholds of the cross-region rebalancer.
    pub rebalance: RebalanceOptions,
}

impl FrontTierOptions {
    /// Options with transfer pricing derived from `model`'s KV geometry and
    /// the default 100 Mb/s / 50 ms inter-region link.
    pub fn for_model(model: &ModelConfig) -> Self {
        FrontTierOptions {
            ring: RingOptions::default(),
            membership: MembershipOptions::default(),
            pricer: RegionTransferPricer {
                model: KvTransferModel::new(
                    model.kv_bytes_per_token_per_layer(),
                    DEFAULT_TOKENS_PER_PAGE,
                ),
                num_layers: model.num_layers,
                link: InterRegionLink::default(),
            },
            rebalance: RebalanceOptions::default(),
        }
    }
}

impl Default for FrontTierOptions {
    fn default() -> Self {
        FrontTierOptions::for_model(&ModelConfig::llama2_70b())
    }
}

/// Routing counters of one front-tier session.
///
/// `routed` holds the *current* attribution of every submitted request to a
/// region; when a region goes down and its buffered requests move, the
/// counts move with them (and each moved request counts one `reroute`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrontTierStats {
    /// Requests currently attributed to each region.
    pub routed: BTreeMap<Region, u64>,
    /// Requests placed by their [`Request::region`] locality tag.
    pub locality_routes: u64,
    /// Prefix-tagged requests that followed an existing, routable home.
    pub affinity_hits: u64,
    /// Prefix-tagged requests that pinned (or re-pinned) a home region.
    pub affinity_misses: u64,
    /// Requests placed by consistent hashing alone.
    pub ring_routes: u64,
    /// Buffered requests moved off a region after it went down.
    pub reroutes: u64,
    /// Prefix homes moved across regions (lazy re-homing after an outage,
    /// or eager moves planned by [`MultiRegionSession::rebalance`]).
    pub affinity_drains: u64,
}

impl FrontTierStats {
    /// Fraction of prefix-tagged routing decisions that reused an existing
    /// home region (`NaN`-free: 0 when nothing was prefix-routed).
    pub fn affinity_hit_rate(&self) -> f64 {
        let total = self.affinity_hits + self.affinity_misses;
        if total == 0 {
            0.0
        } else {
            self.affinity_hits as f64 / total as f64
        }
    }

    /// Requests currently attributed across all regions.
    pub fn total_routed(&self) -> u64 {
        self.routed.values().sum()
    }
}

/// Common read-out over the two per-region report types, so
/// [`MultiRegionReport`] can aggregate without knowing which surface
/// produced each region's report.
pub trait ReportTotals {
    /// Requests the region completed.
    fn completed_requests(&self) -> u64;
    /// Decode tokens the region produced.
    fn decode_tokens(&self) -> u64;
    /// The region's prefix-sharing counters.
    fn prefix_stats(&self) -> PrefixStats;
}

impl ReportTotals for RuntimeReport {
    fn completed_requests(&self) -> u64 {
        self.completed() as u64
    }

    fn decode_tokens(&self) -> u64 {
        RuntimeReport::decode_tokens(self)
    }

    fn prefix_stats(&self) -> PrefixStats {
        self.prefix
    }
}

impl ReportTotals for FleetRunReport {
    fn completed_requests(&self) -> u64 {
        self.metrics.overall.completed_requests
    }

    fn decode_tokens(&self) -> u64 {
        self.metrics.overall.decode_tokens
    }

    fn prefix_stats(&self) -> PrefixStats {
        self.prefix
    }
}

/// One region's share of a finished multi-region run.
#[derive(Debug)]
pub struct RegionReport<R> {
    /// The region.
    pub region: Region,
    /// Requests the front tier handed this region (after any re-routing).
    pub submitted: u64,
    /// The region's own report, untouched.
    pub report: R,
}

/// The report of a finished [`MultiRegionSession`]: every region's report
/// plus the front tier's own routing counters and priced transfers.
#[derive(Debug)]
pub struct MultiRegionReport<R> {
    /// Per-region reports, in registration order.
    pub regions: Vec<RegionReport<R>>,
    /// Front-tier routing counters.
    pub stats: FrontTierStats,
    /// Every cross-region affinity move the tier priced, in order.
    pub transfers: Vec<RegionTransferRecord>,
}

impl<R> MultiRegionReport<R> {
    /// The report of `region`, if it was part of the session.
    pub fn region(&self, region: Region) -> Option<&RegionReport<R>> {
        self.regions.iter().find(|r| r.region == region)
    }
}

impl<R: ReportTotals> MultiRegionReport<R> {
    /// Completed requests summed over all regions.
    pub fn completed_requests(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| r.report.completed_requests())
            .sum()
    }

    /// Decode tokens summed over all regions.
    pub fn decode_tokens(&self) -> u64 {
        self.regions.iter().map(|r| r.report.decode_tokens()).sum()
    }

    /// Prefix-sharing counters merged over all regions.
    pub fn prefix(&self) -> PrefixStats {
        let mut merged = PrefixStats::default();
        for region in &self.regions {
            merged.merge(&region.report.prefix_stats());
        }
        merged
    }

    /// `(region, completed)` pairs in registration order.
    pub fn completed_by_region(&self) -> Vec<(Region, u64)> {
        self.regions
            .iter()
            .map(|r| (r.region, r.report.completed_requests()))
            .collect()
    }
}

/// Where a prefix's shared pages live, as the front tier believes.
#[derive(Debug, Clone, Copy)]
struct AffinityEntry {
    region: Region,
    /// Largest shared-token count any sharer declared; sizes the KV
    /// transfer when the home moves.
    tokens: usize,
}

struct RegionSlot<F> {
    region: Region,
    front: F,
    /// Requests routed here and not yet forwarded; buffering until
    /// [`MultiRegionSession::drain`] is what lets an outage re-route them
    /// losslessly on either backing surface.
    pending: Vec<Request>,
    submitted: u64,
}

/// A fleet of regional fleets behind one [`ServingFrontEnd`].
///
/// Owns one backing session per region plus the front-tier control plane:
/// a [`RegionRing`] for placement, a [`RegionDirectory`] for health and a
/// [`RegionRebalancer`] for cross-region affinity moves.  Submissions are
/// buffered per region and forwarded at [`drain`](Self::drain) — the same
/// buffer-then-drain shape as [`SimSession`](helix_sim::SimSession) — so a
/// region marked [`Down`](RegionHealth::Down) mid-run loses nothing: its
/// buffer is simply re-routed through the ring.
///
/// ```rust,no_run
/// use helix::prelude::*;
/// use helix::region::MultiRegionSession;
/// # fn backends() -> Vec<(Region, SimSession)> { unimplemented!() }
///
/// let mut session = MultiRegionSession::new(backends());
/// session.submit(Request { id: 0, prompt_tokens: 64, output_tokens: 8, ..Request::default() });
/// session.mark_down(Region(1)); // buffered work re-routes, nothing lost
/// let report = session.finish().unwrap();
/// assert_eq!(report.completed_requests(), 1);
/// ```
pub struct MultiRegionSession<F: ServingFrontEnd> {
    slots: Vec<RegionSlot<F>>,
    directory: RegionDirectory,
    ring: RegionRing,
    affinity: HashMap<PrefixId, AffinityEntry>,
    rebalancer: RegionRebalancer,
    pricer: RegionTransferPricer,
    stats: FrontTierStats,
    transfers: Vec<RegionTransferRecord>,
    now: f64,
}

impl<F: ServingFrontEnd> MultiRegionSession<F> {
    /// A front tier over `backends` with default [`FrontTierOptions`].
    ///
    /// # Panics
    ///
    /// When `backends` is empty or two backends claim the same region.
    pub fn new(backends: Vec<(Region, F)>) -> Self {
        Self::with_options(backends, FrontTierOptions::default())
    }

    /// A front tier over `backends` with explicit options.
    ///
    /// # Panics
    ///
    /// When `backends` is empty or two backends claim the same region.
    pub fn with_options(backends: Vec<(Region, F)>, options: FrontTierOptions) -> Self {
        assert!(
            !backends.is_empty(),
            "a MultiRegionSession needs at least one regional backend"
        );
        let mut directory = RegionDirectory::new(options.membership);
        let mut slots = Vec::with_capacity(backends.len());
        for (region, front) in backends {
            assert!(
                slots.iter().all(|s: &RegionSlot<F>| s.region != region),
                "duplicate backend for {region}"
            );
            directory.register(RegionInfo::new(region), 0.0);
            slots.push(RegionSlot {
                region,
                front,
                pending: Vec::new(),
                submitted: 0,
            });
        }
        let regions: Vec<Region> = slots.iter().map(|s| s.region).collect();
        MultiRegionSession {
            slots,
            directory,
            ring: RegionRing::new(&regions, options.ring),
            affinity: HashMap::new(),
            rebalancer: RegionRebalancer::new(options.rebalance),
            pricer: options.pricer,
            stats: FrontTierStats::default(),
            transfers: Vec::new(),
            now: 0.0,
        }
    }

    /// The regions behind this tier, in registration order.
    pub fn regions(&self) -> Vec<Region> {
        self.slots.iter().map(|s| s.region).collect()
    }

    /// The front-tier clock (seconds; drives heartbeat decay).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Routing counters so far.
    pub fn stats(&self) -> &FrontTierStats {
        &self.stats
    }

    /// Cross-region transfers priced so far.
    pub fn transfers(&self) -> &[RegionTransferRecord] {
        &self.transfers
    }

    /// The consistent-hash ring (read-only; health re-weights it).
    pub fn ring(&self) -> &RegionRing {
        &self.ring
    }

    /// The membership directory (read-only; use the `mark_*` /
    /// [`heartbeat`](Self::heartbeat) methods to change health).
    pub fn directory(&self) -> &RegionDirectory {
        &self.directory
    }

    /// `region`'s health at the front-tier clock.
    pub fn health(&self, region: Region) -> RegionHealth {
        self.directory.health(region, self.now)
    }

    /// The region a prefix's shared pages are believed to live in.
    pub fn affinity_home(&self, prefix: PrefixId) -> Option<Region> {
        self.affinity.get(&prefix).map(|e| e.region)
    }

    /// Requests buffered for `region` and not yet forwarded.
    pub fn pending_in(&self, region: Region) -> usize {
        self.slot(region).map_or(0, |s| s.pending.len())
    }

    /// Advances the front-tier clock (monotonic) and re-weights the ring
    /// from heartbeat-derived health.
    pub fn advance(&mut self, now: f64) {
        self.now = self.now.max(now);
        self.re_weigh();
    }

    /// Records a heartbeat from `region` at `now` (also advances the
    /// clock).  Returns `false` for unknown regions.
    pub fn heartbeat(&mut self, region: Region, now: f64) -> bool {
        self.now = self.now.max(now);
        let known = self.directory.heartbeat(region, now);
        self.re_weigh();
        known
    }

    /// Forces `region` down: it leaves the ring, and every request buffered
    /// for it is re-routed through the surviving regions (nothing is lost).
    /// Prefixes homed there re-home lazily on their next sharer, each move
    /// priced as a cross-region transfer.
    pub fn mark_down(&mut self, region: Region) {
        self.directory.mark_down(region);
        self.re_weigh();
        self.reroute_pending(region);
    }

    /// Forces `region` degraded: it keeps a quarter of its ring weight.
    pub fn mark_degraded(&mut self, region: Region) {
        self.directory.mark_degraded(region);
        self.re_weigh();
    }

    /// Clears any forced state and refreshes `region`'s heartbeat, making
    /// it routable again.
    pub fn mark_healthy(&mut self, region: Region) {
        self.directory.mark_healthy(region, self.now);
        self.re_weigh();
    }

    /// Routes and buffers one request; see the module docs for the
    /// locality → affinity → ring priority.
    pub fn submit(&mut self, request: Request) -> TicketId {
        let region = self.route(&request);
        self.push_to(region, request);
        TicketId(request.id)
    }

    /// Plans and executes cross-region affinity moves: non-routable regions
    /// shed their homes, skewed regions shed half their buffered excess
    /// worth of homes to the least-loaded healthy region.  Every move is
    /// priced onto [`transfers`](Self::transfers).  Returns the plan.
    pub fn rebalance(&mut self) -> Vec<RebalanceMove> {
        let loads: Vec<RegionLoad> = self
            .slots
            .iter()
            .map(|s| RegionLoad {
                region: s.region,
                pending: s.pending.len(),
                affinity_entries: self
                    .affinity
                    .values()
                    .filter(|e| e.region == s.region)
                    .count(),
            })
            .collect();
        let now = self.now;
        let rebalancer = self.rebalancer;
        let directory = &self.directory;
        let moves = rebalancer.plan(&loads, |region| directory.health(region, now));
        for planned in &moves {
            // Deterministic pick: largest resident prefixes first (they buy
            // the most relocated reuse per priced transfer), ties by id.
            let mut homed: Vec<(PrefixId, usize)> = self
                .affinity
                .iter()
                .filter(|(_, e)| e.region == planned.from)
                .map(|(p, e)| (*p, e.tokens))
                .collect();
            homed.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
            for (prefix, tokens) in homed.into_iter().take(planned.entries) {
                self.transfers.push(self.pricer.price(
                    now,
                    prefix,
                    planned.from,
                    planned.to,
                    tokens,
                ));
                self.affinity.get_mut(&prefix).expect("homed above").region = planned.to;
                self.stats.affinity_drains += 1;
            }
        }
        moves
    }

    /// Injects a speed factor on `node` *within one region* (the trait-level
    /// [`inject_speed`](ServingFrontEnd::inject_speed) broadcasts instead,
    /// since node ids are per-region namespaces).  Returns `false` for
    /// unknown regions.
    pub fn inject_speed_in(&mut self, region: Region, node: NodeId, factor: f64) -> bool {
        match self.slot_mut(region) {
            Some(slot) => {
                slot.front.inject_speed(node, factor);
                true
            }
            None => false,
        }
    }

    /// Migrates layers *within one region* (the trait-level
    /// [`migrate`](ServingFrontEnd::migrate) targets the first routable
    /// region).  Returns `false` for unknown regions.
    pub fn migrate_in(
        &mut self,
        region: Region,
        model: ModelId,
        from: NodeId,
        to: NodeId,
        layers: LayerRange,
    ) -> bool {
        match self.slot_mut(region) {
            Some(slot) => {
                slot.front.migrate(model, from, to, layers);
                true
            }
            None => false,
        }
    }

    /// Forwards every buffered request to its region and drains all
    /// regions.
    pub fn drain(&mut self) -> Result<(), F::Error> {
        for slot in &mut self.slots {
            for request in slot.pending.drain(..) {
                slot.front.submit(request);
            }
        }
        for slot in &mut self.slots {
            slot.front.drain()?;
        }
        Ok(())
    }

    /// Drains, finishes every region and assembles the merged report.
    pub fn finish(mut self) -> Result<MultiRegionReport<F::Report>, F::Error> {
        self.drain()?;
        let mut regions = Vec::with_capacity(self.slots.len());
        for slot in self.slots {
            regions.push(RegionReport {
                region: slot.region,
                submitted: slot.submitted,
                report: slot.front.finish()?,
            });
        }
        Ok(MultiRegionReport {
            regions,
            stats: self.stats,
            transfers: self.transfers,
        })
    }

    fn slot(&self, region: Region) -> Option<&RegionSlot<F>> {
        self.slots.iter().find(|s| s.region == region)
    }

    fn slot_mut(&mut self, region: Region) -> Option<&mut RegionSlot<F>> {
        self.slots.iter_mut().find(|s| s.region == region)
    }

    fn is_routable(&self, region: Region) -> bool {
        self.slot(region).is_some() && self.directory.health(region, self.now).is_routable()
    }

    /// Ring successor of `key`, skipping non-routable regions; falls back
    /// to the first routable region in registration order.
    fn ring_home(&self, key: u64) -> Option<Region> {
        self.ring
            .route(key)
            .filter(|&r| self.is_routable(r))
            .or_else(|| {
                self.slots
                    .iter()
                    .map(|s| s.region)
                    .find(|&r| self.is_routable(r))
            })
    }

    fn re_weigh(&mut self) {
        for (region, weight) in self.directory.routing_weights(self.now) {
            self.ring.set_weight(region, weight);
        }
    }

    fn push_to(&mut self, region: Region, request: Request) {
        *self.stats.routed.entry(region).or_insert(0) += 1;
        let slot = self
            .slot_mut(region)
            .expect("routed to a registered region");
        slot.pending.push(request);
        slot.submitted += 1;
    }

    fn route(&mut self, request: &Request) -> Region {
        // 1. Locality: honour the request's region tag while routable.  A
        //    prefix riding a locality-routed request materialises there, so
        //    an absent home is pinned to the tag (an existing home is not
        //    moved — the tagged request simply prefills its own copy).
        if let Some(tag) = request.region {
            if self.is_routable(tag) {
                self.stats.locality_routes += 1;
                if let Some((prefix, tokens)) = request.shared_prefix() {
                    let entry = self.affinity.entry(prefix).or_insert(AffinityEntry {
                        region: tag,
                        tokens,
                    });
                    entry.tokens = entry.tokens.max(tokens);
                }
                return tag;
            }
        }
        // 2. Prefix affinity: follow (or pin) the prefix's home region.
        if let Some((prefix, tokens)) = request.shared_prefix() {
            let homed = self.affinity.get(&prefix).copied();
            match homed {
                Some(entry) if self.is_routable(entry.region) => {
                    self.stats.affinity_hits += 1;
                    let entry = self.affinity.get_mut(&prefix).expect("present above");
                    entry.tokens = entry.tokens.max(tokens);
                    return entry.region;
                }
                _ => {
                    if let Some(home) = self.ring_home(prefix.0) {
                        if let Some(old) = homed {
                            // The old home is unreachable: the shared pages
                            // must travel the inter-region link to the new
                            // home before sharers there can reuse them.
                            self.transfers.push(self.pricer.price(
                                self.now,
                                prefix,
                                old.region,
                                home,
                                old.tokens.max(tokens),
                            ));
                            self.stats.affinity_drains += 1;
                        }
                        self.stats.affinity_misses += 1;
                        self.affinity.insert(
                            prefix,
                            AffinityEntry {
                                region: home,
                                tokens,
                            },
                        );
                        return home;
                    }
                }
            }
        }
        // 3. Consistent hash of the request id; if nothing is routable the
        //    request parks on the first region (still buffered — a later
        //    mark_healthy lets it drain normally).
        self.stats.ring_routes += 1;
        self.ring_home(request.id)
            .unwrap_or_else(|| self.slots[0].region)
    }

    /// Moves every request buffered for `from` back through routing; their
    /// `routed` attribution follows them and each counts one reroute.
    fn reroute_pending(&mut self, from: Region) {
        let Some(slot) = self.slot_mut(from) else {
            return;
        };
        let pending = std::mem::take(&mut slot.pending);
        if pending.is_empty() {
            return;
        }
        slot.submitted -= pending.len() as u64;
        if let Some(count) = self.stats.routed.get_mut(&from) {
            *count -= pending.len() as u64;
        }
        for request in pending {
            self.stats.reroutes += 1;
            let region = self.route(&request);
            self.push_to(region, request);
        }
    }
}

impl<F: ServingFrontEnd> ServingFrontEnd for MultiRegionSession<F> {
    type Report = MultiRegionReport<F::Report>;
    type Error = F::Error;

    fn submit(&mut self, request: Request) -> TicketId {
        MultiRegionSession::submit(self, request)
    }

    /// Broadcasts to every region: node ids are per-region namespaces, so a
    /// fleet-wide slowdown of "node 3" means node 3 *everywhere*.  Use
    /// [`inject_speed_in`](MultiRegionSession::inject_speed_in) to target
    /// one region.
    fn inject_speed(&mut self, node: NodeId, factor: f64) {
        for slot in &mut self.slots {
            slot.front.inject_speed(node, factor);
        }
    }

    /// Applies to the first routable region (registration order).  Use
    /// [`migrate_in`](MultiRegionSession::migrate_in) to target one region.
    fn migrate(&mut self, model: ModelId, from: NodeId, to: NodeId, layers: LayerRange) {
        if let Some(region) = self
            .slots
            .iter()
            .map(|s| s.region)
            .find(|&r| self.is_routable(r))
        {
            self.migrate_in(region, model, from, to, layers);
        }
    }

    /// Broadcasts to every region: replication is a fleet-wide policy.
    fn set_replication(&mut self, policy: ReplicationPolicy) {
        for slot in &mut self.slots {
            slot.front.set_replication(policy);
        }
    }

    /// Broadcasts to every region: node ids are per-region namespaces, so
    /// failing "node 3" kills node 3 *everywhere* (a correlated failure).
    /// Region-scoped failures go through the region backend directly.
    fn fail_node(&mut self, node: NodeId, at: f64) {
        for slot in &mut self.slots {
            slot.front.fail_node(node, at);
        }
    }

    fn drain(&mut self) -> Result<(), F::Error> {
        MultiRegionSession::drain(self)
    }

    fn finish(self) -> Result<Self::Report, F::Error> {
        MultiRegionSession::finish(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// A region backend that just records what it was handed; lets the
    /// routing logic be tested without spinning up simulators.
    #[derive(Default)]
    struct NullFront {
        submitted: Vec<Request>,
        drained: bool,
    }

    impl ServingFrontEnd for NullFront {
        type Report = Vec<Request>;
        type Error = Infallible;

        fn submit(&mut self, request: Request) -> TicketId {
            self.submitted.push(request);
            TicketId(request.id)
        }

        fn inject_speed(&mut self, _node: NodeId, _factor: f64) {}

        fn migrate(&mut self, _m: ModelId, _f: NodeId, _t: NodeId, _l: LayerRange) {}

        fn set_replication(&mut self, _policy: ReplicationPolicy) {}

        fn fail_node(&mut self, _node: NodeId, _at: f64) {}

        fn drain(&mut self) -> Result<(), Infallible> {
            self.drained = true;
            Ok(())
        }

        fn finish(self) -> Result<Vec<Request>, Infallible> {
            assert!(self.drained, "finish without drain");
            Ok(self.submitted)
        }
    }

    fn tier(regions: &[u32]) -> MultiRegionSession<NullFront> {
        MultiRegionSession::new(
            regions
                .iter()
                .map(|&r| (Region(r), NullFront::default()))
                .collect(),
        )
    }

    fn tagged(id: u64, region: Option<u32>, prefix: Option<(u64, usize)>) -> Request {
        Request {
            id,
            prompt_tokens: 128,
            output_tokens: 8,
            prefix: prefix.map(|(p, _)| PrefixId(p)),
            prefix_tokens: prefix.map_or(0, |(_, t)| t),
            region: region.map(Region),
            ..Request::default()
        }
    }

    #[test]
    fn routing_priority_is_locality_then_affinity_then_ring() {
        let mut tier = tier(&[0, 1, 2]);
        // Locality tag wins.
        tier.submit(tagged(0, Some(2), None));
        assert_eq!(tier.stats().locality_routes, 1);
        assert_eq!(tier.pending_in(Region(2)), 1);
        // First sharer pins the home, later sharers follow it — even when
        // their ids would hash elsewhere.
        tier.submit(tagged(1, None, Some((7, 64))));
        let home = tier.affinity_home(PrefixId(7)).unwrap();
        for id in 2..10 {
            tier.submit(tagged(id, None, Some((7, 64))));
        }
        assert_eq!(tier.affinity_home(PrefixId(7)), Some(home));
        assert_eq!(tier.stats().affinity_misses, 1);
        assert_eq!(tier.stats().affinity_hits, 8);
        assert!(tier.stats().affinity_hit_rate() > 0.8);
        assert_eq!(tier.pending_in(home), 9 + usize::from(home == Region(2)));
        // Untagged requests spread over the ring deterministically.
        let mut twin = super::tests::tier(&[0, 1, 2]);
        for id in 10..40 {
            tier.submit(tagged(id, None, None));
        }
        for id in 0..10 {
            twin.submit(tagged(
                id,
                if id == 0 { Some(2) } else { None },
                if id >= 1 { Some((7, 64)) } else { None },
            ));
        }
        for id in 10..40 {
            twin.submit(tagged(id, None, None));
        }
        assert_eq!(tier.stats(), twin.stats());
        assert_eq!(tier.stats().total_routed(), 40);
    }

    #[test]
    fn mark_down_reroutes_buffered_work_and_rehomes_prefixes() {
        let mut tier = tier(&[0, 1, 2]);
        for id in 0..30 {
            tier.submit(tagged(id, None, Some((id % 3, 64))));
        }
        let victim = tier.affinity_home(PrefixId(0)).unwrap();
        let buffered = tier.pending_in(victim) as u64;
        assert!(buffered > 0);

        tier.mark_down(victim);
        assert_eq!(tier.health(victim), RegionHealth::Down);
        // Nothing lost: the down region's buffer is empty, the others hold
        // everything.
        assert_eq!(tier.pending_in(victim), 0);
        assert_eq!(tier.stats().total_routed(), 30);
        assert_eq!(tier.stats().reroutes, buffered);
        assert_eq!(*tier.stats().routed.get(&victim).unwrap_or(&0), 0);

        // The dead region's prefixes re-homed (either during the reroute or
        // on the next sharer), each move priced over the inter-region link.
        tier.submit(tagged(100, None, Some((0, 64))));
        let new_home = tier.affinity_home(PrefixId(0)).unwrap();
        assert_ne!(new_home, victim);
        assert!(tier.stats().affinity_drains > 0);
        let transfer = tier.transfers().iter().find(|t| t.from == victim).unwrap();
        assert!(transfer.transfer_secs > 0.0);
        assert!(transfer.bytes > 0.0);

        // A locality tag pointing at the dead region is overridden.
        tier.submit(tagged(101, Some(victim.0), None));
        assert_eq!(tier.pending_in(victim), 0);

        // Recovery puts the region back in rotation.
        tier.mark_healthy(victim);
        assert_eq!(tier.health(victim), RegionHealth::Healthy);
        tier.submit(tagged(102, Some(victim.0), None));
        assert_eq!(tier.pending_in(victim), 1);
    }

    #[test]
    fn rebalance_drains_skewed_and_down_regions() {
        let mut tier = tier(&[0, 1, 2]);
        // Pin ten prefixes to region 0 (locality tag routes them there) and
        // skew its buffered load well past 2× the routable mean.
        for id in 0..10 {
            tier.submit(tagged(id, Some(0), Some((id, 64))));
        }
        for id in 10..40 {
            tier.submit(tagged(id, Some(0), None));
        }
        tier.submit(tagged(40, Some(1), None));
        tier.submit(tagged(41, Some(2), None));
        assert_eq!(tier.affinity_home(PrefixId(3)), Some(Region(0)));

        let moves = tier.rebalance();
        assert!(!moves.is_empty());
        // Half of region 0's ten homes move to the least-loaded survivor.
        assert!(moves.iter().all(|m| m.from == Region(0)));
        let drained = tier.stats().affinity_drains;
        assert_eq!(drained, 5);
        assert_eq!(tier.transfers().len(), drained as usize);
        // Exactly that many homes now point away from region 0.
        let moved = (0..10)
            .filter(|&p| tier.affinity_home(PrefixId(p)) != Some(Region(0)))
            .count() as u64;
        assert_eq!(moved, drained);
    }

    #[test]
    fn heartbeat_decay_degrades_then_downs_a_silent_region() {
        let mut tier = tier(&[0, 1]);
        let interval = MembershipOptions::default().heartbeat_interval_secs;
        tier.heartbeat(Region(0), 0.0);
        tier.heartbeat(Region(1), 0.0);
        tier.advance(interval * 3.0);
        tier.heartbeat(Region(0), interval * 3.0);
        assert_eq!(tier.health(Region(0)), RegionHealth::Healthy);
        assert_eq!(tier.health(Region(1)), RegionHealth::Degraded);
        tier.advance(interval * 6.0);
        assert_eq!(tier.health(Region(1)), RegionHealth::Down);
        // All placement now avoids the silent region.
        for id in 0..20 {
            tier.submit(tagged(id, None, None));
        }
        assert_eq!(tier.pending_in(Region(1)), 0);
    }

    #[test]
    fn finish_merges_reports_and_preserves_every_request() {
        let mut tier = tier(&[0, 1, 2]);
        for id in 0..25 {
            tier.submit(tagged(id, None, (id % 2 == 0).then_some((id / 4, 32))));
        }
        tier.mark_down(Region(1));
        let report = tier.finish().unwrap();
        let forwarded: usize = report.regions.iter().map(|r| r.report.len()).sum();
        assert_eq!(forwarded, 25);
        for region in &report.regions {
            assert_eq!(region.submitted as usize, region.report.len());
        }
        assert_eq!(report.region(Region(1)).unwrap().report.len(), 0);
        assert_eq!(report.stats.total_routed(), 25);
    }
}
