//! Region discovery and membership: registration, heartbeats, health.
//!
//! The front tier is a fleet of fleets — each regional cluster runs its own
//! coordinator and session, and the [`RegionDirectory`] is the small piece of
//! shared state binding them: regions *register*, *heartbeat* on a fixed
//! cadence, and are classified [`Healthy`](RegionHealth::Healthy),
//! [`Degraded`](RegionHealth::Degraded) or [`Down`](RegionHealth::Down) from
//! missed heartbeats (or by explicit operator override).  Health drives two
//! consumers:
//!
//! * **ring re-weighting** — [`RegionDirectory::routing_weights`] feed the
//!   [`RegionRing`](super::RegionRing), shifting new traffic away from sick
//!   regions without moving keys between healthy ones;
//! * **planner re-runs** — [`RegionDirectory::health_observations`] translate
//!   region health into per-node [`NodeObservations`] so `PodPartitioner` /
//!   `HierarchicalFleetPlanner` re-runs price a degraded region's nodes at
//!   reduced speed and a down region's nodes at the planning floor.

use crate::replan::{NodeObservations, MIN_SPEED_FACTOR};
use helix_cluster::{ClusterSpec, ModelId, Region};
use std::collections::BTreeMap;

/// Health classification of one region, from its heartbeat history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionHealth {
    /// Heartbeating on schedule: full routing weight.
    Healthy,
    /// Missed enough heartbeats to be suspect (or marked by an operator):
    /// reduced routing weight, existing affinity entries stay.
    Degraded,
    /// Missed enough heartbeats to be considered gone: removed from the
    /// ring, pending traffic re-routes, affinity entries drain elsewhere.
    Down,
}

impl RegionHealth {
    /// Routing weight the ring applies for this health state.
    pub fn routing_weight(self) -> f64 {
        match self {
            RegionHealth::Healthy => 1.0,
            RegionHealth::Degraded => 0.25,
            RegionHealth::Down => 0.0,
        }
    }

    /// Whether a front tier may still send *new* requests here.
    pub fn is_routable(self) -> bool {
        !matches!(self, RegionHealth::Down)
    }

    /// The speed factor planner re-runs price this region's nodes at.
    pub fn speed_factor(self) -> f64 {
        match self {
            RegionHealth::Healthy => 1.0,
            RegionHealth::Degraded => 0.5,
            RegionHealth::Down => MIN_SPEED_FACTOR,
        }
    }
}

/// Heartbeat cadence and the missed-beat thresholds for health transitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipOptions {
    /// Expected seconds between heartbeats.
    pub heartbeat_interval_secs: f64,
    /// Missed consecutive heartbeats before a region counts as Degraded.
    pub degraded_after_missed: u32,
    /// Missed consecutive heartbeats before a region counts as Down.
    pub down_after_missed: u32,
}

impl Default for MembershipOptions {
    fn default() -> Self {
        MembershipOptions {
            heartbeat_interval_secs: 10.0,
            degraded_after_missed: 2,
            down_after_missed: 5,
        }
    }
}

/// What a region announces when it registers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionInfo {
    /// The region's identity.
    pub region: Region,
    /// Compute nodes the regional cluster holds (informational; used by
    /// rebalancing to reason about capacity).
    pub nodes: usize,
    /// Planned serving capacity in tokens/s (0 when unknown).
    pub capacity_tokens_per_sec: f64,
}

impl RegionInfo {
    /// A minimal announcement: identity only.
    pub fn new(region: Region) -> Self {
        RegionInfo {
            region,
            nodes: 0,
            capacity_tokens_per_sec: 0.0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct RegionEntry {
    info: RegionInfo,
    last_heartbeat: f64,
    /// Operator override: wins over heartbeat-derived health until cleared.
    forced: Option<RegionHealth>,
}

/// The membership table of a multi-region deployment.
///
/// All time is caller-supplied seconds (simulated or wall — the directory
/// does not read a clock), so membership behaves identically over the
/// discrete-event simulator and the async runtime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionDirectory {
    options: MembershipOptions,
    entries: BTreeMap<Region, RegionEntry>,
}

impl RegionDirectory {
    /// An empty directory with the given thresholds.
    pub fn new(options: MembershipOptions) -> Self {
        RegionDirectory {
            options,
            entries: BTreeMap::new(),
        }
    }

    /// The configured thresholds.
    pub fn options(&self) -> MembershipOptions {
        self.options
    }

    /// Registers (or re-registers) a region, counting as a heartbeat at
    /// `now`.  Re-registration of a known region keeps any operator
    /// override in force — a flapping region that re-announces itself must
    /// not silently escape a planned drain ([`mark_down`](Self::mark_down)'s
    /// contract); only an explicit [`mark_healthy`](Self::mark_healthy)
    /// clears the hold.
    pub fn register(&mut self, info: RegionInfo, now: f64) {
        match self.entries.get_mut(&info.region) {
            Some(entry) => {
                entry.info = info;
                entry.last_heartbeat = entry.last_heartbeat.max(now);
            }
            None => {
                self.entries.insert(
                    info.region,
                    RegionEntry {
                        info,
                        last_heartbeat: now,
                        forced: None,
                    },
                );
            }
        }
    }

    /// Removes a region from the table entirely.
    pub fn deregister(&mut self, region: Region) {
        self.entries.remove(&region);
    }

    /// Records a heartbeat at `now`.  Returns `false` for unknown regions
    /// (they must register first).  A forced override is *not* cleared by a
    /// heartbeat: an operator-downed region stays down until
    /// [`mark_healthy`](Self::mark_healthy) or re-registration.
    pub fn heartbeat(&mut self, region: Region, now: f64) -> bool {
        match self.entries.get_mut(&region) {
            Some(entry) => {
                entry.last_heartbeat = entry.last_heartbeat.max(now);
                true
            }
            None => false,
        }
    }

    /// Operator override: force `region` Down (e.g. a planned drain, or a
    /// failure signal arriving out of band faster than missed heartbeats).
    pub fn mark_down(&mut self, region: Region) {
        if let Some(entry) = self.entries.get_mut(&region) {
            entry.forced = Some(RegionHealth::Down);
        }
    }

    /// Operator override: force `region` Degraded.
    pub fn mark_degraded(&mut self, region: Region) {
        if let Some(entry) = self.entries.get_mut(&region) {
            entry.forced = Some(RegionHealth::Degraded);
        }
    }

    /// Clears any override and refreshes the heartbeat, restoring `region`
    /// to Healthy as of `now`.
    pub fn mark_healthy(&mut self, region: Region, now: f64) {
        if let Some(entry) = self.entries.get_mut(&region) {
            entry.forced = None;
            entry.last_heartbeat = entry.last_heartbeat.max(now);
        }
    }

    /// Health of `region` as of `now`: the operator override if set, else
    /// derived from missed heartbeats.  Unknown regions are Down.
    pub fn health(&self, region: Region, now: f64) -> RegionHealth {
        let Some(entry) = self.entries.get(&region) else {
            return RegionHealth::Down;
        };
        if let Some(forced) = entry.forced {
            return forced;
        }
        let missed = ((now - entry.last_heartbeat) / self.options.heartbeat_interval_secs)
            .max(0.0)
            .floor() as u32;
        if missed >= self.options.down_after_missed {
            RegionHealth::Down
        } else if missed >= self.options.degraded_after_missed {
            RegionHealth::Degraded
        } else {
            RegionHealth::Healthy
        }
    }

    /// All registered regions in id order, with their announcements.
    pub fn regions(&self) -> impl Iterator<Item = &RegionInfo> + '_ {
        self.entries.values().map(|e| &e.info)
    }

    /// Regions a front tier may route new traffic to as of `now`.
    pub fn routable_regions(&self, now: f64) -> Vec<Region> {
        self.entries
            .keys()
            .copied()
            .filter(|&r| self.health(r, now).is_routable())
            .collect()
    }

    /// `(region, ring weight)` pairs as of `now` — the ring re-weighting
    /// input.
    pub fn routing_weights(&self, now: f64) -> Vec<(Region, f64)> {
        self.entries
            .keys()
            .copied()
            .map(|r| (r, self.health(r, now).routing_weight()))
            .collect()
    }

    /// Translates region health into per-node observations for planner
    /// re-runs: every node of a Degraded region measures at half speed and
    /// every node of a Down region at the planning floor, for all `models`.
    /// Healthy regions contribute nothing (analytic shares stand).
    pub fn health_observations(
        &self,
        spec: &ClusterSpec,
        models: usize,
        now: f64,
    ) -> NodeObservations {
        let mut observed = NodeObservations::new();
        for node in spec.nodes() {
            let health = self.health(node.region, now);
            if health == RegionHealth::Healthy || !self.entries.contains_key(&node.region) {
                continue;
            }
            for m in 0..models {
                observed.record(node.id, ModelId(m), 0.0, health.speed_factor(), 1.0);
            }
        }
        observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_cluster::ClusterSpec;

    fn directory() -> RegionDirectory {
        let mut d = RegionDirectory::new(MembershipOptions::default());
        for r in 0..3u32 {
            d.register(RegionInfo::new(Region(r)), 0.0);
        }
        d
    }

    #[test]
    fn heartbeats_drive_health_transitions() {
        let mut d = directory();
        assert_eq!(d.health(Region(0), 0.0), RegionHealth::Healthy);
        // Region 1 keeps heartbeating; region 0 goes silent at t=0.
        for t in [10.0, 20.0, 30.0, 40.0, 50.0] {
            assert!(d.heartbeat(Region(1), t));
        }
        assert_eq!(d.health(Region(0), 15.0), RegionHealth::Healthy);
        assert_eq!(d.health(Region(0), 25.0), RegionHealth::Degraded);
        assert_eq!(d.health(Region(0), 49.0), RegionHealth::Degraded);
        assert_eq!(d.health(Region(0), 51.0), RegionHealth::Down);
        assert_eq!(d.health(Region(1), 51.0), RegionHealth::Healthy);
        // Unknown regions are Down; heartbeats from them are rejected.
        assert_eq!(d.health(Region(9), 0.0), RegionHealth::Down);
        assert!(!d.heartbeat(Region(9), 0.0));
        // A late heartbeat resurrects the silent region.
        assert!(d.heartbeat(Region(0), 60.0));
        assert_eq!(d.health(Region(0), 61.0), RegionHealth::Healthy);
    }

    #[test]
    fn overrides_win_over_heartbeats_until_cleared() {
        let mut d = directory();
        d.mark_down(Region(2));
        assert_eq!(d.health(Region(2), 0.0), RegionHealth::Down);
        // Heartbeats do not clear an operator hold.
        d.heartbeat(Region(2), 1.0);
        assert_eq!(d.health(Region(2), 1.0), RegionHealth::Down);
        assert_eq!(d.routable_regions(1.0), vec![Region(0), Region(1)]);
        d.mark_degraded(Region(1));
        let weights = d.routing_weights(1.0);
        assert_eq!(
            weights,
            vec![(Region(0), 1.0), (Region(1), 0.25), (Region(2), 0.0)]
        );
        // Only mark_healthy clears the hold; re-registration does not.
        d.mark_healthy(Region(1), 2.0);
        assert_eq!(d.health(Region(1), 2.0), RegionHealth::Healthy);
        d.register(RegionInfo::new(Region(2)), 2.0);
        assert_eq!(d.health(Region(2), 2.0), RegionHealth::Down);
        d.mark_healthy(Region(2), 2.0);
        assert_eq!(d.health(Region(2), 2.0), RegionHealth::Healthy);
        d.deregister(Region(2));
        assert_eq!(d.health(Region(2), 2.0), RegionHealth::Down);
    }

    #[test]
    fn flapping_region_cannot_escape_a_planned_drain_by_re_registering() {
        let mut d = directory();
        // Operator drains region 1; the region then flaps — crashes, comes
        // back, and re-registers as if nothing happened.
        d.mark_down(Region(1));
        assert_eq!(d.health(Region(1), 0.0), RegionHealth::Down);
        for t in [5.0, 10.0, 15.0] {
            d.register(RegionInfo::new(Region(1)), t);
            d.heartbeat(Region(1), t);
            assert_eq!(
                d.health(Region(1), t),
                RegionHealth::Down,
                "re-registration at t={t} must not clear the operator hold"
            );
            assert!(!d.routable_regions(t).contains(&Region(1)));
        }
        // Re-registration still refreshes the announcement and heartbeat, so
        // lifting the hold restores Healthy immediately (no decay window).
        let mut info = RegionInfo::new(Region(1));
        info.nodes = 8;
        d.register(info, 20.0);
        d.mark_healthy(Region(1), 20.0);
        assert_eq!(d.health(Region(1), 20.0), RegionHealth::Healthy);
        assert_eq!(
            d.regions().find(|i| i.region == Region(1)).unwrap().nodes,
            8
        );
    }

    #[test]
    fn health_feeds_planner_observations() {
        // geo_distributed_24 spreads 24 nodes over regions 0..3.
        let spec = ClusterSpec::geo_distributed_24();
        let mut d = RegionDirectory::new(MembershipOptions::default());
        for r in 0..3u32 {
            d.register(RegionInfo::new(Region(r)), 0.0);
        }
        d.mark_degraded(Region(1));
        d.mark_down(Region(2));
        let observed = d.health_observations(&spec, 1, 0.0);
        let mut degraded = 0;
        let mut floored = 0;
        for node in spec.nodes() {
            let factor = observed.speed_factor(node.id, ModelId(0));
            match d.health(node.region, 0.0) {
                RegionHealth::Healthy => assert_eq!(factor, None),
                RegionHealth::Degraded => {
                    assert_eq!(factor, Some(0.5));
                    degraded += 1;
                }
                RegionHealth::Down => {
                    assert_eq!(factor, Some(MIN_SPEED_FACTOR));
                    floored += 1;
                }
            }
        }
        assert!(degraded > 0 && floored > 0);
    }
}
