package aco

// The roulette behind Eq. 5's transition rule, in prefix-sum form: pick
// builds cum[j] = w_0 + … + w_j over the candidate weights and draws the
// first j with cum[j] > x. Every loop here feeds placement decisions, so
// each sum keeps ONE accumulator fed in ascending VM order — float addition
// is not associative, and any reassociation would move placements.

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

// maskedCum writes the inclusive in-order prefix sum of Eq. 5's weight row
// into cum, with every tabu VM's weight taken as exactly 0, and returns the
// total. w and tabu must have at least len(cum) entries; cum may alias w.
//
// The body is unrolled 4x with the single accumulator still fed in
// ascending order, so it is bit-identical to the plain loop (FuzzRoulette
// holds it to that) and only sheds loop overhead and bounds checks.
func maskedCum(w []float64, tabu []bool, cum []float64) float64 {
	n := len(cum)
	w = w[:n]
	tabu = tabu[:n]
	var acc float64
	j := 0
	for ; j+4 <= n; j += 4 {
		var w0, w1, w2, w3 float64
		if !tabu[j] {
			w0 = w[j]
		}
		if !tabu[j+1] {
			w1 = w[j+1]
		}
		if !tabu[j+2] {
			w2 = w[j+2]
		}
		if !tabu[j+3] {
			w3 = w[j+3]
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
		var wj float64
		if !tabu[j] {
			wj = w[j]
		}
		acc += wj
		cum[j] = acc
	}
	return acc
}
