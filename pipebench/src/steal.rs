//! Hypervisor steal time.
//!
//! On a shared host the hypervisor runs other guests on this guest's
//! virtual CPUs; the kernel counts that time as `steal` in `/proc/stat`.
//! It is not time the program spent, and on an oversubscribed host it
//! varies by tens of percent from minute to minute, so the end-to-end
//! timings are reported net of it.

/// CPU time of the whole guest, in `/proc/stat` ticks: time spent
/// running anything, and time the hypervisor stole.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTicks {
    pub busy: u64,
    pub steal: u64,
}

impl CpuTicks {
    /// Current totals; zeros where the kernel does not report them.
    pub fn now() -> CpuTicks {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| parse(&s))
            .unwrap_or_default()
    }

    /// Ticks accumulated since `earlier`.
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            busy: self.busy.saturating_sub(earlier.busy),
            steal: self.steal.saturating_sub(earlier.steal),
        }
    }

    pub fn add(&mut self, o: CpuTicks) {
        self.busy += o.busy;
        self.steal += o.steal;
    }

    /// `wall` scaled to the share of demanded CPU time the guest got:
    /// busy / (busy + steal). Whether one vCPU or all were busy, this is
    /// the wall the work would have taken without the stolen time.
    pub fn net(self, wall: f64) -> f64 {
        let demanded = self.busy + self.steal;
        if demanded == 0 {
            wall
        } else {
            wall * self.busy as f64 / demanded as f64
        }
    }
}

/// The aggregate `cpu` line: user nice system idle iowait irq softirq
/// steal ...; idle and iowait are the only columns not counted busy.
fn parse(stat: &str) -> Option<CpuTicks> {
    let line = stat.lines().next()?;
    let f: Vec<u64> = line
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    Some(CpuTicks {
        busy: at(0) + at(1) + at(2) + at(5) + at(6),
        steal: at(7),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_line() {
        let stat = "cpu  100 1 20 5000 7 3 4 50 0 0\ncpu0 50 0 10 2500 3 1 2 25 0 0\n";
        let t = parse(stat).unwrap();
        assert_eq!(
            t,
            CpuTicks {
                busy: 128,
                steal: 50
            }
        );
        assert!(parse("intr 1 2 3").is_none());
    }

    #[test]
    fn net_removes_the_stolen_share() {
        let t = CpuTicks {
            busy: 75,
            steal: 25,
        };
        assert_eq!(t.net(4.0), 3.0);
        assert_eq!(CpuTicks::default().net(4.0), 4.0);
        let later = CpuTicks::now();
        assert_eq!(later.since(later), CpuTicks::default());
    }
}
