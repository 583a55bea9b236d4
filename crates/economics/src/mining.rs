//! Crypto-heater economics (§II-B.3, §IV).
//!
//! "Digital heaters are receiving a growing interest in the community
//! of coin miners. Comino and the Qarnot crypto-heater are special
//! servers, built to serve both as a space heater and a crypto
//! currency miner" — and §IV adds that "data furnace could disrupt
//! blockchain … DF servers constitute a significant computing power."
//!
//! The unit economics: a mining rig's margin is
//! `revenue − electricity`; a crypto-*heater*'s margin is
//! `revenue − electricity + heat value`, where the heat value is the
//! heating bill it displaces — but only in heating season. The model
//! quantifies when the heat credit rescues otherwise-unprofitable
//! mining.

use crate::tariff::Tariff;
use simcore::time::SimTime;

/// A mining device's performance characteristics.
#[derive(Debug, Clone, Copy)]
pub struct MiningRig {
    /// Hash rate, MH/s (Ethash-class units).
    pub hashrate_mh: f64,
    /// Electrical power at the wall, W.
    pub power_w: f64,
}

impl MiningRig {
    /// The Qarnot crypto-heater QC1: 2 GPUs, 650 W (§II-B), ~60 MH/s
    /// Ethash-class.
    pub fn qarnot_qc1() -> Self {
        MiningRig {
            hashrate_mh: 60.0,
            power_w: 650.0,
        }
    }
}

/// Market conditions for the coin being mined.
#[derive(Debug, Clone, Copy)]
pub struct CoinMarket {
    /// Revenue per MH/s per day, €.
    pub eur_per_mh_day: f64,
}

impl CoinMarket {
    /// A lean market where raw mining barely breaks even at retail
    /// electricity prices (the regime where the heat credit decides).
    pub fn lean() -> Self {
        CoinMarket {
            eur_per_mh_day: 0.032,
        }
    }
}

/// One day of crypto-heater accounting.
#[derive(Debug, Clone, Copy)]
pub struct MiningDay {
    /// Gross mining revenue, €.
    pub revenue_eur: f64,
    /// Electricity cost, €.
    pub electricity_eur: f64,
    /// Heat credit (displaced heating bill), €.
    pub heat_credit_eur: f64,
}

impl MiningDay {
    /// Margin of a pure mining rig (no heat use), €.
    pub fn rig_margin_eur(&self) -> f64 {
        self.revenue_eur - self.electricity_eur
    }

    /// Margin of a crypto-heater (heat displaces a heating bill), €.
    pub fn heater_margin_eur(&self) -> f64 {
        self.revenue_eur - self.electricity_eur + self.heat_credit_eur
    }
}

/// Account one day of operation at time `t`.
///
/// `heat_utilisation ∈ [0, 1]` is the fraction of the rig's heat that
/// displaces real heating demand that day (≈1 in winter, ≈0 in summer;
/// take it from a thermostat or a thermosensitivity model).
pub fn account_day(
    rig: MiningRig,
    market: CoinMarket,
    tariff: &Tariff,
    t: SimTime,
    heat_utilisation: f64,
) -> MiningDay {
    assert!((0.0..=1.0).contains(&heat_utilisation));
    let kwh = rig.power_w * 24.0 / 1_000.0;
    let electricity = tariff.cost_eur(t, kwh);
    MiningDay {
        revenue_eur: rig.hashrate_mh * market.eur_per_mh_day,
        electricity_eur: electricity,
        // Displaced heating is valued at the same tariff: a resistive
        // heater would have drawn exactly the utilised fraction.
        heat_credit_eur: electricity * heat_utilisation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;

    fn at_day(d: i64) -> SimTime {
        SimTime::ZERO + SimDuration::from_days(d) + SimDuration::from_hours(12)
    }

    #[test]
    fn qc1_specs_match_paper() {
        let rig = MiningRig::qarnot_qc1();
        assert_eq!(rig.power_w, 650.0);
        assert!(rig.hashrate_mh / rig.power_w > 0.05); // MH/s per W
    }

    #[test]
    fn lean_market_mining_loses_without_heat_credit() {
        let day = account_day(
            MiningRig::qarnot_qc1(),
            CoinMarket::lean(),
            &Tariff::flat(0.20),
            at_day(150),
            0.0, // summer: heat is wasted
        );
        assert!(
            day.rig_margin_eur() < 0.0,
            "lean-market rig margin {} should be negative",
            day.rig_margin_eur()
        );
        assert_eq!(day.heater_margin_eur(), day.rig_margin_eur());
    }

    #[test]
    fn heat_credit_rescues_winter_mining() {
        let day = account_day(
            MiningRig::qarnot_qc1(),
            CoinMarket::lean(),
            &Tariff::flat(0.20),
            at_day(20),
            1.0, // deep winter: all heat displaces the heating bill
        );
        assert!(day.rig_margin_eur() < 0.0);
        assert!(
            day.heater_margin_eur() > 0.0,
            "with the heat credit the crypto-heater profits: {}",
            day.heater_margin_eur()
        );
    }

    #[test]
    fn bull_market_profits_regardless() {
        let day = account_day(
            MiningRig::qarnot_qc1(),
            // A bull market: mining pays even without the heat credit.
            CoinMarket {
                eur_per_mh_day: 0.10,
            },
            &Tariff::flat(0.20),
            at_day(150),
            0.0,
        );
        assert!(day.rig_margin_eur() > 0.0);
    }

    #[test]
    fn heat_credit_never_exceeds_electricity() {
        for util in [0.0, 0.3, 1.0] {
            let day = account_day(
                MiningRig::qarnot_qc1(),
                CoinMarket::lean(),
                &Tariff::france(),
                at_day(340),
                util,
            );
            assert!(day.heat_credit_eur <= day.electricity_eur + 1e-9);
            assert!(day.heat_credit_eur >= 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn utilisation_out_of_range_panics() {
        account_day(
            MiningRig::qarnot_qc1(),
            CoinMarket::lean(),
            &Tariff::flat(0.2),
            at_day(0),
            1.5,
        );
    }
}
