//! Functional-unit pools with pipelining and structural hazards.

use crate::config::FuConfig;
use regshare_isa::OpClass;

/// All functional units of the core, grouped per [`OpClass`].
///
/// Pipelined pools accept one operation per unit per cycle; unpipelined
/// pools (divides) occupy a unit for the full latency.
///
/// # Examples
///
/// ```
/// use regshare_sim::{FuPool, SimConfig};
/// use regshare_isa::OpClass;
///
/// let mut fus = FuPool::new(&SimConfig::default());
/// assert!(fus.try_issue(OpClass::IntDiv, 0).is_some());
/// assert!(fus.try_issue(OpClass::IntDiv, 0).is_none()); // unit busy
/// ```
#[derive(Debug, Clone)]
pub struct FuPool {
    /// Indexed by `OpClass as usize`: the class's configuration and the
    /// busy-until cycle of each of its units (`None`: no such unit).
    pools: Vec<Option<(FuConfig, Vec<u64>)>>,
}

impl FuPool {
    /// Creates the pools from the simulator configuration.
    pub fn new(config: &crate::SimConfig) -> Self {
        let mut pools = vec![None; OpClass::Branch as usize + 1];
        for (class, fu) in &config.fus {
            // The first entry for a class is the one that counts.
            pools[*class as usize].get_or_insert_with(|| (*fu, vec![0u64; fu.count]));
        }
        FuPool { pools }
    }

    /// Attempts to claim a unit of `class` at cycle `now`. Returns the
    /// operation latency on success; the unit is occupied for one cycle
    /// (pipelined) or the full latency (unpipelined).
    pub fn try_issue(&mut self, class: OpClass, now: u64) -> Option<u32> {
        let (fu, units) = self.pools[class as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("no functional unit for {class}"));
        let unit = units.iter_mut().find(|busy| **busy <= now)?;
        *unit = now + if fu.pipelined { 1 } else { fu.latency as u64 };
        Some(fu.latency)
    }

    /// The configured latency of a class (without claiming a unit).
    pub fn latency(&self, class: OpClass) -> u32 {
        self.pools[class as usize]
            .as_ref()
            .map(|(fu, _)| fu.latency)
            .unwrap_or_else(|| panic!("no functional unit for {class}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;

    #[test]
    fn pipelined_units_accept_one_per_cycle() {
        let mut fus = FuPool::new(&SimConfig::default());
        // 2 IntAlu units.
        assert!(fus.try_issue(OpClass::IntAlu, 0).is_some());
        assert!(fus.try_issue(OpClass::IntAlu, 0).is_some());
        assert!(fus.try_issue(OpClass::IntAlu, 0).is_none());
        // Next cycle both are free again.
        assert!(fus.try_issue(OpClass::IntAlu, 1).is_some());
        assert!(fus.try_issue(OpClass::IntAlu, 1).is_some());
    }

    #[test]
    fn unpipelined_divide_blocks_for_full_latency() {
        let cfg = SimConfig::default();
        let lat = cfg.fu(OpClass::IntDiv).latency as u64;
        let mut fus = FuPool::new(&cfg);
        assert!(fus.try_issue(OpClass::IntDiv, 0).is_some());
        assert!(fus.try_issue(OpClass::IntDiv, lat - 1).is_none());
        assert!(fus.try_issue(OpClass::IntDiv, lat).is_some());
    }

    #[test]
    fn latency_lookup_matches_config() {
        let cfg = SimConfig::default();
        let fus = FuPool::new(&cfg);
        assert_eq!(fus.latency(OpClass::FpMul), cfg.fu(OpClass::FpMul).latency);
    }
}
