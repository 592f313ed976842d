//! Property tests for the communication scheduler and routing layer:
//! makespans must respect structural bounds on arbitrary hop sets, routes
//! must be well-formed for every bank pair, and a validated geometry's
//! `u32` counts never wrap.

use proptest::prelude::*;
use transpim_acu::ring::{ring_step_hops, schedule_hops, Hop, TransferCostModel};
use transpim_hbm::energy::EnergyParams;
use transpim_hbm::geometry::{BankId, HbmGeometry};
use transpim_hbm::resource::{BusParams, ResourceMap};

fn small_geometry() -> HbmGeometry {
    HbmGeometry {
        stacks: 2,
        channels_per_stack: 2,
        groups_per_channel: 2,
        banks_per_group: 4,
        ..HbmGeometry::default()
    }
}

fn setup(buffered: bool) -> (ResourceMap, TransferCostModel) {
    let g = small_geometry();
    (
        ResourceMap::new(g, BusParams::default(), buffered),
        TransferCostModel::new(g, EnergyParams::default(), buffered),
    )
}

/// A geometry dimension spread over every magnitude from 1 to `u32::MAX`:
/// a random word shifted right by the larger of two random amounts, which
/// leans small enough that about a third of five-dimension geometries
/// validate and the rest straddle the overflow boundary.
fn dimension() -> impl Strategy<Value = u32> {
    (any::<u32>(), 0u32..32, 0u32..32).prop_map(|(word, a, b)| (word >> a.max(b)).max(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn validated_geometries_never_wrap(
        stacks in dimension(),
        channels_per_stack in dimension(),
        groups_per_channel in dimension(),
        banks_per_group in dimension(),
        row_bytes in dimension(),
    ) {
        let g = HbmGeometry {
            stacks,
            channels_per_stack,
            groups_per_channel,
            banks_per_group,
            row_bytes,
            ..HbmGeometry::default()
        };
        // Exact counts in u128, where no product of four u32s can wrap.
        let wide = u128::from;
        let channels = wide(stacks) * wide(channels_per_stack);
        let groups = channels * wide(groups_per_channel);
        let banks = groups * wide(banks_per_group);
        let per_channel = wide(groups_per_channel) * wide(banks_per_group);
        let ids = banks + 2 * groups + channels + wide(stacks) + 1;
        let row_bits = wide(row_bytes) * 8;
        let fits = [channels, groups, banks, ids, row_bits].iter().all(|&n| n <= wide(u32::MAX));
        prop_assert_eq!(g.validate().is_ok(), fits, "validate must accept exactly what fits");
        if fits {
            prop_assert_eq!(u128::from(g.banks_per_channel()), per_channel);
            prop_assert_eq!(u128::from(g.banks_per_stack()), per_channel * wide(channels_per_stack));
            prop_assert_eq!(u128::from(g.total_banks()), banks);
            prop_assert_eq!(u128::from(g.total_channels()), channels);
            prop_assert_eq!(u128::from(g.total_groups()), groups);
            prop_assert_eq!(u128::from(g.row_bits()), row_bits);
            let map = ResourceMap::new(g, BusParams::default(), true);
            prop_assert_eq!(u128::from(map.len()), ids);
        }
    }

    #[test]
    fn makespan_is_bounded_by_hop_extremes(
        pairs in proptest::collection::vec((0u32..32, 0u32..32), 1..24),
        bytes in 64u64..8192,
        buffered in any::<bool>(),
    ) {
        let (map, xfer) = setup(buffered);
        let hops: Vec<Hop> = pairs
            .iter()
            .filter(|(s, d)| s != d)
            .map(|&(s, d)| Hop { src: BankId(s), dst: BankId(d), bytes })
            .collect();
        prop_assume!(!hops.is_empty());
        let r = schedule_hops(&map, &xfer, &hops);

        let times: Vec<f64> = hops
            .iter()
            .map(|h| map.route(h.src, h.dst).transfer_ns(h.bytes as f64))
            .collect();
        let max = times.iter().copied().fold(0.0, f64::max);
        let sum: f64 = times.iter().sum();
        prop_assert!(r.latency_ns >= max - 1e-9, "makespan below longest hop");
        prop_assert!(r.latency_ns <= sum + 1e-6, "makespan above full serialization");
        prop_assert!(r.slots >= 1 && r.slots as usize <= hops.len());
        prop_assert!(r.energy_pj > 0.0);
        prop_assert_eq!(r.bytes, hops.len() as f64 * bytes as f64);
    }

    #[test]
    fn ring_step_respects_group_serialization_floor(
        banks in 2u32..32,
        bytes in 256u64..4096,
    ) {
        let (map, xfer) = setup(true);
        let ids: Vec<BankId> = (0..banks).map(BankId).collect();
        let hops = ring_step_hops(&ids, bytes);
        let r = schedule_hops(&map, &xfer, &hops);
        // At least ceil over groups: each group's intra hops share a link.
        let g = small_geometry();
        let intra_per_group = (g.banks_per_group - 1).min(banks.saturating_sub(1));
        prop_assert!(
            r.slots >= intra_per_group.max(1),
            "{banks} banks: {} slots below group floor {}",
            r.slots,
            intra_per_group
        );
    }

    #[test]
    fn routes_are_well_formed(src in 0u32..32, dst in 0u32..32) {
        let (map, _) = setup(true);
        prop_assume!(src != dst);
        let r = map.route(BankId(src), BankId(dst));
        prop_assert!(r.resources.len() >= 2, "route must include both banks");
        prop_assert!(r.bandwidth_gbs > 0.0 && r.bandwidth_gbs.is_finite());
        prop_assert!(r.resources.contains(&map.bank(BankId(src))));
        prop_assert!(r.resources.contains(&map.bank(BankId(dst))));
        // Symmetry of bottleneck bandwidth (paths are undirected here).
        let back = map.route(BankId(dst), BankId(src));
        prop_assert!((r.bandwidth_gbs - back.bandwidth_gbs).abs() < 1e-12);
    }

    #[test]
    fn unbuffered_never_beats_buffered(
        // Rings smaller than a bank group gain nothing from the dedicated
        // neighbor links (the shared bus is wider than one link), so the
        // property holds from one full group upward.
        banks in 8u32..32,
        bytes in 256u64..4096,
    ) {
        let (map_b, xfer_b) = setup(true);
        let (map_n, xfer_n) = setup(false);
        let ids: Vec<BankId> = (0..banks).map(BankId).collect();
        let hops = ring_step_hops(&ids, bytes);
        let b = schedule_hops(&map_b, &xfer_b, &hops);
        let n = schedule_hops(&map_n, &xfer_n, &hops);
        prop_assert!(
            b.latency_ns <= n.latency_ns + 1e-9,
            "buffered {} worse than unbuffered {}",
            b.latency_ns,
            n.latency_ns
        );
    }
}

#[test]
fn empty_hop_set_is_free() {
    let (map, xfer) = setup(true);
    let r = schedule_hops(&map, &xfer, &[]);
    assert_eq!(r.latency_ns, 0.0);
    assert_eq!(r.slots, 0);
}
