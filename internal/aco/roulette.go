package aco

// The roulette behind Eq. 5's transition rule, in prefix-sum form: pick
// builds cum[j] = w_0 + … + w_j over the candidate weights and draws the
// first j with cum[j] > x. Every loop here feeds placement decisions, so
// each sum keeps ONE accumulator fed in ascending VM order — float addition
// is not associative, and any reassociation would move placements.

// cumSum writes the inclusive in-order prefix sum of w into cum and returns
// the total. cum may alias w; len(cum) must equal len(w).
func cumSum(cum, w []float64) float64 {
	var acc float64
	for j := range w {
		acc += w[j]
		cum[j] = acc
	}
	return acc
}

// searchCum returns the roulette slot for x on the non-decreasing, NaN-free
// array cum: the smallest j with cum[j] > x, len(cum) when every entry is
// ≤ x. It is a binary upper-bound search; the half-step is a
// data-dependent select the compiler lowers to a conditional move, so the
// O(log m) probe loop runs without a mispredictable branch.
func searchCum(cum []float64, x float64) int {
	n := len(cum)
	// Invariant: every entry before base is ≤ x, every entry from base+n on
	// is > x. The half-step either skips the lower half or shrinks the
	// window.
	base := 0
	for n > 1 {
		half := n / 2
		if cum[base+half-1] <= x {
			base += half
		}
		n -= half
	}
	if n == 1 && cum[base] <= x {
		base++
	}
	return base
}

// weightedCum fuses the Eq. 5 weight row with its prefix sum: for each VM j
// the weight is ba[j]·eta[cls[j]], or exactly 0 when tabu[j], and cum[j]
// receives the running in-order total, which is returned. ba, cls and tabu
// must have at least len(cum) entries; eta is indexed by class id.
//
// The body is unrolled 4x with the single accumulator still fed in
// ascending order, so it is bit-identical to the plain loop (FuzzRoulette
// holds it to that) and only sheds loop overhead and bounds checks.
func weightedCum(ba, eta []float64, cls []int32, tabu []bool, cum []float64) float64 {
	n := len(cum)
	ba = ba[:n]
	cls = cls[:n]
	tabu = tabu[:n]
	var acc float64
	j := 0
	for ; j+4 <= n; j += 4 {
		var w0, w1, w2, w3 float64
		if !tabu[j] {
			w0 = ba[j] * eta[cls[j]]
		}
		if !tabu[j+1] {
			w1 = ba[j+1] * eta[cls[j+1]]
		}
		if !tabu[j+2] {
			w2 = ba[j+2] * eta[cls[j+2]]
		}
		if !tabu[j+3] {
			w3 = ba[j+3] * eta[cls[j+3]]
		}
		acc += w0
		cum[j] = acc
		acc += w1
		cum[j+1] = acc
		acc += w2
		cum[j+2] = acc
		acc += w3
		cum[j+3] = acc
	}
	for ; j < n; j++ {
		var w float64
		if !tabu[j] {
			w = ba[j] * eta[cls[j]]
		}
		acc += w
		cum[j] = acc
	}
	return acc
}
