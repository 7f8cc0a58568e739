//! Egress forwarding-queue arithmetic.
//!
//! The forwarding queue's throughput "equals \[the\] customer's capacity"
//! (Fig. 8). Within one simulation tick the queue admits at most
//! `capacity_bps * tick / 8` bytes; excess offered bytes are congestion
//! loss, shared proportionally across contending flows (a fluid
//! approximation of FIFO loss under sustained overload).

/// Splits `capacity_bytes` across `offers` proportionally: writes, per
/// offer, `(forwarded, dropped)` with `forwarded + dropped == offer` into
/// `out` (cleared first), using `order` as reusable sort scratch. Hot
/// tick paths own both buffers and reuse them across ticks.
pub fn drain_proportional_into(
    offers: &[u64],
    capacity_bytes: u64,
    out: &mut Vec<(u64, u64)>,
    order: &mut Vec<usize>,
) {
    out.clear();
    let total: u64 = offers.iter().sum();
    if total <= capacity_bytes {
        out.extend(offers.iter().map(|&o| (o, 0)));
        return;
    }
    if capacity_bytes == 0 {
        out.extend(offers.iter().map(|&o| (0, o)));
        return;
    }
    let scale = capacity_bytes as f64 / total as f64;
    out.extend(offers.iter().map(|&o| {
        let fwd = (o as f64 * scale).floor() as u64;
        (fwd, o - fwd)
    }));
    // Distribute the rounding remainder to the largest offers so the
    // capacity is fully used and totals stay exact.
    let mut used: u64 = out.iter().map(|(f, _)| *f).sum();
    order.clear();
    order.extend(0..offers.len());
    order.sort_by_key(|&i| std::cmp::Reverse(offers[i]));
    let mut idx = 0;
    while used < capacity_bytes && idx < order.len() {
        let i = order[idx];
        if out[i].1 > 0 {
            out[i].0 += 1;
            out[i].1 -= 1;
            used += 1;
        } else {
            idx += 1;
        }
        if idx < order.len() && out[order[idx]].1 == 0 {
            idx += 1;
        }
    }
}

/// Converts a link capacity and tick duration to a byte budget.
pub fn capacity_bytes(capacity_bps: u64, tick_us: u64) -> u64 {
    ((capacity_bps as u128 * tick_us as u128) / 8_000_000u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(offers: &[u64], capacity_bytes: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        drain_proportional_into(offers, capacity_bytes, &mut out, &mut Vec::new());
        out
    }

    #[test]
    fn under_capacity_forwards_everything() {
        let r = drain(&[100, 200, 300], 1000);
        assert_eq!(r, vec![(100, 0), (200, 0), (300, 0)]);
    }

    #[test]
    fn over_capacity_drops_proportionally_and_exactly() {
        let offers = [600u64, 300, 100];
        let r = drain(&offers, 500);
        let fwd: u64 = r.iter().map(|(f, _)| f).sum();
        let drop: u64 = r.iter().map(|(_, d)| d).sum();
        assert_eq!(fwd, 500);
        assert_eq!(fwd + drop, 1000);
        // Proportionality within rounding: the 600-byte flow gets ~60%.
        assert!((r[0].0 as i64 - 300).abs() <= 1);
        for (i, (f, d)) in r.iter().enumerate() {
            assert_eq!(f + d, offers[i]);
        }
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let r = drain(&[10, 20], 0);
        assert_eq!(r, vec![(0, 10), (0, 20)]);
    }

    #[test]
    fn empty_offers() {
        assert!(drain(&[], 100).is_empty());
    }

    #[test]
    fn capacity_conversion() {
        // 1 Gbps over 100 ms = 12.5 MB.
        assert_eq!(capacity_bytes(1_000_000_000, 100_000), 12_500_000);
        // 10 Gbps over 1 s = 1.25 GB.
        assert_eq!(capacity_bytes(10_000_000_000, 1_000_000), 1_250_000_000);
        assert_eq!(capacity_bytes(0, 1_000_000), 0);
    }

    #[test]
    fn rounding_remainder_is_fully_allocated() {
        // Capacity 10 against offers summing 30: floor allocation loses
        // bytes that must be recovered.
        let r = drain(&[7, 11, 12], 10);
        let fwd: u64 = r.iter().map(|(f, _)| f).sum();
        assert_eq!(fwd, 10);
    }
}
