package objective

import (
	"math"
	"runtime"
)

// asmPow is true where math.Pow is an assembly routine: Pow cannot
// replicate steps it does not know, so there it always calls math.Pow.
const asmPow = runtime.GOARCH == "s390x"

// Pow returns math.Pow(x, y), bit for bit, at about half its cost on the
// exponents strictly between 0 and 1 that ACO raises to (Table II's
// α = 0.01 and β = 0.99).
//
// Go's math.Pow splits |y| into an integer part yi and a fraction yf, and
// when yf > ½ it moves one unit over (yf−1, yi+1). It then returns
// Exp(yf·Log x)·x^yi, multiplying by Frexp's fraction of x and putting the
// power of two back with Ldexp. For 0 < y < 1 and a normal finite x the
// result lies between x and 1, so it is normal, the Ldexp is an exact
// scaling, and the whole computation is
//
//	x·Exp((y−1)·Log x)   for ½ < y < 1,
//	Exp(y·Log x)         for 0 < y < ½.
//
// Pow runs those steps alone, without math.Pow's special-case switch, Modf,
// Frexp and Ldexp. Every other input goes to math.Pow itself: y = ½ (its
// Sqrt case), y outside (0, 1), and x that is zero, subnormal, negative,
// infinite or NaN. FuzzPow and TestPowMatchesMathPow hold Pow to math.Pow,
// so a toolchain whose math.Pow takes other steps fails them rather than
// moving a placement.
func Pow(x, y float64) float64 {
	if asmPow || !(0x1p-1022 <= x && x <= math.MaxFloat64) {
		return math.Pow(x, y)
	}
	switch {
	case 0.5 < y && y < 1:
		return x * math.Exp((y-1)*math.Log(x))
	case 0 < y && y < 0.5:
		return math.Exp(y * math.Log(x))
	}
	return math.Pow(x, y)
}
