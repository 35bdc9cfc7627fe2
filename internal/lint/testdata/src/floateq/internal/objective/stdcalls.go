package objective

import (
	"slices"
	"strconv"
)

// fromStd compares floats returned by standard-library calls, whose result
// types the checker reads from the toolchain's export data: line 12 violates.
func fromStd(xs []float64, s string) bool {
	v, _ := strconv.ParseFloat(s, 64)
	return slices.Max(xs) == v
}
