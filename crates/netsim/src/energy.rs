//! Radio energy model and per-node energy ledgers.
//!
//! The paper's motivation (§1): "the largest power consumption is due to
//! communication (sending or receiving a small message may consume as much
//! power as a thousand processing cycles)". We model energy as affine in
//! the transmitted/received bit count, with a per-packet wakeup overhead.
//!
//! The default constants are *synthetic but representative* of early-2000s
//! motes (mica2-class radios). Only *bit counts* are claimed to reproduce
//! the paper — joules are presentation.

/// Affine per-bit/per-packet radio energy model, in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy to transmit one bit.
    pub tx_nj_per_bit: f64,
    /// Energy to receive one bit.
    pub rx_nj_per_bit: f64,
    /// Fixed per-packet transmit overhead (ramp-up, preamble).
    pub tx_nj_per_packet: f64,
    /// Fixed per-packet receive overhead.
    pub rx_nj_per_packet: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // Mica2-class figures: ~720 nJ/bit tx at full power, ~110 nJ/bit rx,
        // a few uJ of per-packet overhead.
        EnergyModel {
            tx_nj_per_bit: 720.0,
            rx_nj_per_bit: 110.0,
            tx_nj_per_packet: 2_000.0,
            rx_nj_per_packet: 1_000.0,
        }
    }
}

impl EnergyModel {
    /// Energy in nanojoules to transmit one packet of `bits` bits.
    pub fn tx_cost(&self, bits: u64) -> f64 {
        self.tx_nj_per_packet + self.tx_nj_per_bit * bits as f64
    }

    /// Energy in nanojoules to receive one packet of `bits` bits.
    pub fn rx_cost(&self, bits: u64) -> f64 {
        self.rx_nj_per_packet + self.rx_nj_per_bit * bits as f64
    }
}

/// Accumulated energy expenditure for one node, in nanojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyLedger {
    /// Total transmit energy.
    pub tx_nj: f64,
    /// Total receive energy.
    pub rx_nj: f64,
}

impl EnergyLedger {
    /// Total energy across transmit and receive.
    pub fn total_nj(&self) -> f64 {
        self.tx_nj + self.rx_nj
    }

    /// Total energy in millijoules (for human-readable reports).
    pub fn total_mj(&self) -> f64 {
        self.total_nj() / 1e6
    }

    /// Records a transmission of `bits` under `model`.
    pub fn charge_tx(&mut self, model: &EnergyModel, bits: u64) {
        self.tx_nj += model.tx_cost(bits);
    }

    /// Records a reception of `bits` under `model`.
    pub fn charge_rx(&mut self, model: &EnergyModel, bits: u64) {
        self.rx_nj += model.rx_cost(bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_are_affine_in_bits() {
        let m = EnergyModel::default();
        let a = m.tx_cost(100);
        let b = m.tx_cost(200);
        let c = m.tx_cost(300);
        assert!((2.0 * b - a - c).abs() < 1e-9, "tx cost not affine");
        assert!(m.rx_cost(100) < m.tx_cost(100), "rx should be cheaper");
    }

    #[test]
    fn ledger_accumulates() {
        let m = EnergyModel::default();
        let mut l = EnergyLedger::default();
        l.charge_tx(&m, 1000);
        l.charge_rx(&m, 1000);
        assert!(l.tx_nj > 0.0 && l.rx_nj > 0.0);
        assert!((l.total_nj() - (m.tx_cost(1000) + m.rx_cost(1000))).abs() < 1e-9);
        let before = l.total_nj();
        l.charge_tx(&m, 0);
        assert!(l.total_nj() > before, "per-packet overhead still charged");
    }

    #[test]
    fn unit_conversion() {
        let l = EnergyLedger {
            tx_nj: 2.5e6,
            rx_nj: 0.5e6,
        };
        assert!((l.total_mj() - 3.0).abs() < 1e-12);
    }
}
