//! SLAs over a seasonal platform.
//!
//! §IV: "for SLAs designers, data furnace is a field of research that
//! can still lead to very innovative proposals." The twist: committed
//! capacity can honestly vary by season. [`SlaTarget`] carries both a
//! deadline SLO for edge and a seasonal capacity commitment for DCC;
//! [`SlaReport`] measures attainment and computes penalties.

/// Service-level targets.
#[derive(Debug, Clone, Copy)]
pub struct SlaTarget {
    /// Fraction of edge requests that must meet their deadline.
    pub edge_deadline_attainment: f64,
    /// Committed DCC capacity per month, core-hours — may differ by
    /// month (the seasonal SLA §IV suggests).
    pub monthly_capacity_core_h: [f64; 12],
    /// Penalty per violated percentage point of edge attainment, €.
    pub edge_penalty_eur_per_pp: f64,
    /// Penalty per missing committed core-hour, €.
    pub capacity_penalty_eur_per_core_h: f64,
}

impl SlaTarget {
    /// A flat SLA: the same commitment every month (the classical cloud
    /// SLA the paper says data furnace must move beyond).
    pub fn flat(capacity_core_h: f64) -> Self {
        SlaTarget {
            edge_deadline_attainment: 0.99,
            monthly_capacity_core_h: [capacity_core_h; 12],
            edge_penalty_eur_per_pp: 50.0,
            capacity_penalty_eur_per_core_h: 0.05,
        }
    }
}

/// Measured outcomes for one month.
#[derive(Debug, Clone, Copy)]
pub struct MonthOutcome {
    /// Calendar month, 0 = January.
    pub month: usize,
    /// Edge requests served / meeting deadline.
    pub edge_total: u64,
    pub edge_met: u64,
    /// DCC core-hours actually delivered.
    pub delivered_core_h: f64,
}

/// Attainment report across months.
#[derive(Debug, Clone)]
pub struct SlaReport {
    pub target: SlaTarget,
    pub months: Vec<MonthOutcome>,
}

impl SlaReport {
    pub fn new(target: SlaTarget) -> Self {
        SlaReport {
            target,
            months: Vec::new(),
        }
    }

    pub fn push(&mut self, m: MonthOutcome) {
        assert!(m.month < 12);
        assert!(m.edge_met <= m.edge_total);
        self.months.push(m);
    }

    /// Edge attainment over all months (1.0 when no edge traffic).
    pub fn edge_attainment(&self) -> f64 {
        let total: u64 = self.months.iter().map(|m| m.edge_total).sum();
        if total == 0 {
            return 1.0;
        }
        let met: u64 = self.months.iter().map(|m| m.edge_met).sum();
        met as f64 / total as f64
    }

    /// Capacity shortfall against the monthly commitments, core-hours.
    pub fn capacity_shortfall_core_h(&self) -> f64 {
        self.months
            .iter()
            .map(|m| (self.target.monthly_capacity_core_h[m.month] - m.delivered_core_h).max(0.0))
            .sum()
    }

    /// Total penalty, €.
    pub fn penalty_eur(&self) -> f64 {
        let att = self.edge_attainment();
        let edge_pp_missing = ((self.target.edge_deadline_attainment - att) * 100.0).max(0.0);
        edge_pp_missing * self.target.edge_penalty_eur_per_pp
            + self.capacity_shortfall_core_h() * self.target.capacity_penalty_eur_per_core_h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn month(m: usize, delivered: f64) -> MonthOutcome {
        MonthOutcome {
            month: m,
            edge_total: 1_000,
            edge_met: 995,
            delivered_core_h: delivered,
        }
    }

    #[test]
    fn seasonal_sla_avoids_summer_penalties_that_flat_incurs() {
        // A fleet delivering 10 000 core-h in winter but 3 000 in summer.
        let flat = SlaTarget::flat(8_000.0);
        // Seasonal commitments follow the heat-driven supply curve:
        // winter Nov–Mar, summer May–Sep, shoulder months in between.
        let mut seasonal = SlaTarget::flat(0.0);
        for (m, slot) in seasonal.monthly_capacity_core_h.iter_mut().enumerate() {
            *slot = match m {
                0 | 1 | 2 | 10 | 11 => 10_000.0,
                4..=8 => 3_000.0,
                _ => 6_500.0,
            };
        }
        let mut flat_r = SlaReport::new(flat);
        let mut seas_r = SlaReport::new(seasonal);
        for m in 0..12 {
            let delivered = match m {
                0 | 1 | 2 | 10 | 11 => 10_000.0,
                4..=8 => 3_000.0,
                _ => 6_500.0,
            };
            flat_r.push(month(m, delivered));
            seas_r.push(month(m, delivered));
        }
        assert!(flat_r.capacity_shortfall_core_h() > 0.0);
        assert_eq!(seas_r.capacity_shortfall_core_h(), 0.0);
        assert!(flat_r.penalty_eur() > seas_r.penalty_eur());
    }

    #[test]
    fn edge_attainment_penalty() {
        let mut r = SlaReport::new(SlaTarget::flat(0.0));
        r.push(MonthOutcome {
            month: 0,
            edge_total: 1_000,
            edge_met: 970, // 97 % < 99 % target
            delivered_core_h: 0.0,
        });
        assert!((r.edge_attainment() - 0.97).abs() < 1e-12);
        // 2 pp missing × 50 € = 100 €.
        assert!((r.penalty_eur() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn no_traffic_is_full_attainment() {
        let r = SlaReport::new(SlaTarget::flat(0.0));
        assert_eq!(r.edge_attainment(), 1.0);
        assert_eq!(r.penalty_eur(), 0.0);
    }

    #[test]
    #[should_panic]
    fn met_cannot_exceed_total() {
        let mut r = SlaReport::new(SlaTarget::flat(0.0));
        r.push(MonthOutcome {
            month: 0,
            edge_total: 10,
            edge_met: 11,
            delivered_core_h: 0.0,
        });
    }
}
