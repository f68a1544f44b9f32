//! Property-based tests of the synthesis model: resource estimates are
//! monotone in their parameters, slice packing is consistent, and the
//! report arithmetic balances.

use nocem_area::devices::{
    switch, tg_stochastic, tg_trace_driven, tr_stochastic, tr_trace_driven, StochasticTgParams,
    StochasticTrParams, SwitchParams, TraceTgParams, TraceTrParams,
};
use nocem_area::fpga::{estimate_clock_mhz, FpgaDevice, ALL_DEVICES, XC2VP20};
use nocem_area::primitives::{fifo_lutram, mux, register, Resources};
use nocem_area::report::SynthesisReport;
use nocem_common::choice::check;
use nocem_common::{prop_assert, prop_assert_eq};

/// Slice packing: monotone in both LUTs and FFs, never below the
/// perfect-packing bound, never above one slice per resource.
#[test]
fn slice_packing_is_sane() {
    check("slice_packing_is_sane", 0..128, |c| {
        let (luts, ffs) = (c.range(0u64..100_000), c.range(0u64..100_000));
        let r = Resources::new(luts, ffs);
        let s = XC2VP20.slices_for(r);
        let hi = luts.max(ffs);
        prop_assert!(s >= hi.div_ceil(2), "below perfect packing");
        prop_assert!(s <= hi, "more slices than resources");
        // Monotonicity.
        let bigger = XC2VP20.slices_for(Resources::new(luts + 100, ffs));
        prop_assert!(bigger >= s);
        let bigger = XC2VP20.slices_for(Resources::new(luts, ffs + 100));
        prop_assert!(bigger >= s);
        Ok(())
    });
}

/// Deeper source queues cost more TG slices; all other parameters
/// held equal.
#[test]
fn tg_cost_is_monotone_in_queue_depth() {
    check("tg_cost_is_monotone_in_queue_depth", 0..128, |c| {
        let d = c.range(1u64..64);
        let small = tg_stochastic(StochasticTgParams {
            queue_depth: d,
            ..Default::default()
        });
        let large = tg_stochastic(StochasticTgParams {
            queue_depth: d + 8,
            ..Default::default()
        });
        prop_assert!(XC2VP20.slices_for(large) >= XC2VP20.slices_for(small));
        Ok(())
    });
}

/// More histogram bins cost more TR slices.
#[test]
fn tr_cost_is_monotone_in_bins() {
    check("tr_cost_is_monotone_in_bins", 0..128, |c| {
        let bins = c.range(2u64..64);
        let small = tr_stochastic(StochasticTrParams {
            histogram_bins: bins,
            ..Default::default()
        });
        let large = tr_stochastic(StochasticTrParams {
            histogram_bins: bins * 2,
            ..Default::default()
        });
        prop_assert!(XC2VP20.slices_for(large) > XC2VP20.slices_for(small));
        Ok(())
    });
}

/// Switch cost grows with port count and buffer depth — the
/// paper's "switch parameters" (inputs, outputs, buffer size).
#[test]
fn switch_cost_is_monotone() {
    check("switch_cost_is_monotone", 0..128, |c| {
        let (inputs, outputs, depth) = (c.range(1u64..8), c.range(1u64..8), c.range(1u64..16));
        let base = SwitchParams {
            fifo_depth: depth,
            ..SwitchParams::new(inputs, outputs)
        };
        let more_ports = SwitchParams {
            fifo_depth: depth,
            ..SwitchParams::new(inputs + 1, outputs + 1)
        };
        let deeper = SwitchParams {
            fifo_depth: depth + 4,
            ..SwitchParams::new(inputs, outputs)
        };
        let s0 = XC2VP20.slices_for(switch(base));
        prop_assert!(XC2VP20.slices_for(switch(more_ports)) > s0);
        prop_assert!(XC2VP20.slices_for(switch(deeper)) > s0);
        Ok(())
    });
}

/// Report totals equal the sum of their entries (instances
/// included). Slices are summed per component (components do not
/// share slices after placement), so the platform's slice count is
/// the per-entry sum, never less than packing the merged bag.
#[test]
fn report_arithmetic_balances() {
    check("report_arithmetic_balances", 0..128, |c| {
        let (tg, sw) = (c.range(1u64..8), c.range(1u64..10));
        let tg_unit = tg_stochastic(StochasticTgParams::default());
        let sw_unit = switch(SwitchParams::new(4, 4));
        let mut rep = SynthesisReport::new(XC2VP20);
        rep.add("tg", tg, tg_unit);
        rep.add("sw", sw, sw_unit);
        let manual = tg_unit * tg + sw_unit * sw;
        prop_assert_eq!(rep.total(), manual);
        let per_entry = XC2VP20.slices_for(tg_unit) * tg + XC2VP20.slices_for(sw_unit) * sw;
        prop_assert_eq!(rep.total_slices(), per_entry);
        prop_assert!(rep.total_slices() >= XC2VP20.slices_for(manual));
        let util = rep.utilization();
        prop_assert!((util - per_entry as f64 / XC2VP20.slices as f64).abs() < 1e-12);
        prop_assert_eq!(
            rep.fits(),
            per_entry <= XC2VP20.slices && manual.bram_bits <= XC2VP20.bram_bits
        );
        Ok(())
    });
}

/// The estimated clock decreases (or holds) as switches grow —
/// wider arbitration means longer critical paths.
#[test]
fn clock_estimate_is_antitone_in_ports() {
    check("clock_estimate_is_antitone_in_ports", 0..128, |c| {
        let ports = c.range(1u64..16);
        prop_assert!(estimate_clock_mhz(ports + 1) <= estimate_clock_mhz(ports));
        prop_assert!(estimate_clock_mhz(ports) > 0.0);
        Ok(())
    });
}

/// `smallest_fitting` returns the first part that fits, and
/// anything it rejects really does not fit.
#[test]
fn smallest_fitting_is_tight() {
    check("smallest_fitting_is_tight", 0..128, |c| {
        let slices_needed = c.range(1u64..50_000);
        // Construct a resource bag that packs to roughly the target.
        let r = Resources::new(slices_needed * 2, slices_needed * 2);
        match FpgaDevice::smallest_fitting(r) {
            Some(dev) => {
                prop_assert!(dev.fits(r));
                for smaller in ALL_DEVICES.iter().take_while(|d| d.slices < dev.slices) {
                    prop_assert!(!smaller.fits(r), "{} also fits", smaller.name);
                }
            }
            None => {
                for dev in ALL_DEVICES {
                    prop_assert!(!dev.fits(r));
                }
            }
        }
        Ok(())
    });
}

/// Primitive costs scale linearly-ish: a register of 2n bits costs
/// exactly twice a register of n bits; FIFOs and muxes are
/// monotone in width and depth.
#[test]
fn primitive_costs_scale() {
    check("primitive_costs_scale", 0..128, |c| {
        let n = c.range(1u64..512);
        prop_assert_eq!(register(2 * n).ffs, 2 * register(n).ffs);
        let f1 = fifo_lutram(34, n);
        let f2 = fifo_lutram(34, n + 8);
        prop_assert!(f2.luts >= f1.luts);
        let m1 = mux(4, n);
        let m2 = mux(8, n);
        prop_assert!(m2.luts >= m1.luts);
        Ok(())
    });
}

/// The calibrated defaults reproduce the paper's Table 1 ranking:
/// TG stochastic > TR trace > TG trace > TR stochastic > control.
#[test]
fn table1_ranking_holds() {
    let tg_s = XC2VP20.slices_for(tg_stochastic(StochasticTgParams::default()));
    let tg_t = XC2VP20.slices_for(tg_trace_driven(TraceTgParams::default()));
    let tr_s = XC2VP20.slices_for(tr_stochastic(StochasticTrParams::default()));
    let tr_t = XC2VP20.slices_for(tr_trace_driven(TraceTrParams::default()));
    let ctl = XC2VP20.slices_for(nocem_area::devices::control_module());
    assert!(
        tg_s > tg_t,
        "stochastic TG ({tg_s}) above trace TG ({tg_t})"
    );
    assert!(
        tr_t > tr_s,
        "trace TR ({tr_t}) above stochastic TR ({tr_s})"
    );
    assert!(
        tg_t > tr_s,
        "trace TG ({tg_t}) above stochastic TR ({tr_s})"
    );
    assert!(ctl < tr_s / 4, "control module is tiny ({ctl})");
    // And the absolute calibration stays within 10% of Table 1.
    for (got, paper) in [
        (tg_s, 719u64),
        (tg_t, 652),
        (tr_s, 371),
        (tr_t, 690),
        (ctl, 18),
    ] {
        let err = (got as f64 - paper as f64).abs() / paper as f64;
        assert!(err < 0.10, "calibration drifted: {got} vs paper {paper}");
    }
}
