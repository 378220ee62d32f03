//! Area model (Table IV) and the energy-delay-area product used to
//! judge the 8-cluster variant (Section VII-C).

use crate::config::ArkConfig;

/// Component areas in mm² (Table IV, 7 nm).
#[derive(Debug, Clone, Copy)]
pub struct Area {
    /// 4 BConvUs.
    pub bconvu: f64,
    /// 4 NTTUs (wiring-dominated).
    pub nttu: f64,
    /// 4 AutoUs.
    pub autou: f64,
    /// 8 MADUs.
    pub madu: f64,
    /// Register files.
    pub rf: f64,
    /// Scratchpad SRAM.
    pub sram: f64,
    /// NoC.
    pub noc: f64,
    /// HBM PHYs/controllers.
    pub hbm: f64,
}

impl Area {
    /// Table IV of the paper.
    pub fn table_iv() -> Self {
        Self {
            bconvu: 9.3,
            nttu: 57.2,
            autou: 20.6,
            madu: 8.9,
            rf: 42.8,
            sram: 229.2,
            noc: 20.6,
            hbm: 29.6,
        }
    }

    /// Scales for a configuration: per-cluster components scale with the
    /// cluster count (and the BConvU with its MAC count); the NoC grows
    /// superlinearly with endpoints.
    pub fn for_config(cfg: &ArkConfig) -> Self {
        let base = Self::table_iv();
        let k = cfg.clusters as f64 / 4.0;
        Self {
            bconvu: base.bconvu * k * cfg.macs_per_bconv_lane as f64 / 6.0,
            nttu: base.nttu * k,
            autou: base.autou * k,
            madu: base.madu * k * cfg.madus_per_cluster as f64 / 2.0,
            rf: base.rf * k,
            sram: base.sram * cfg.scratchpad_mib as f64 / 512.0,
            noc: base.noc * k * k.max(1.0).sqrt(),
            hbm: base.hbm * cfg.hbm_gbps / 1000.0,
        }
    }

    /// Total die area (418.3 mm² at base).
    pub fn total(&self) -> f64 {
        self.bconvu + self.nttu + self.autou + self.madu + self.rf + self.sram + self.noc + self.hbm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_total_area() {
        assert!((Area::table_iv().total() - 418.2).abs() < 0.2);
    }

    #[test]
    fn two_x_clusters_area_ratio_near_paper() {
        // paper: 1.39× larger chip at 8 clusters
        let base = Area::for_config(&ArkConfig::base()).total();
        let big = Area::for_config(&ArkConfig::two_x_clusters()).total();
        let ratio = big / base;
        assert!((1.3..1.55).contains(&ratio), "area ratio {ratio:.2}");
    }

    #[test]
    fn scratchpad_sweep_scales_sram_only() {
        let small = Area::for_config(&ArkConfig::with_scratchpad(256));
        let base = Area::for_config(&ArkConfig::base());
        assert!((base.sram / small.sram - 2.0).abs() < 1e-9);
        assert!((base.nttu - small.nttu).abs() < 1e-9);
    }
}
