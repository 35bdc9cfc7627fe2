// Fixture behind the SARIF golden and text-output tests: one detrand and
// one floateq finding, plus a suppressed comparison proving suppressions
// never reach a report.
package sched

import "math/rand"

func pick(n int) int {
	return rand.Intn(n)
}

func sameScore(a, b float64) bool {
	return a == b
}

func sentinel(total float64) bool {
	return total == 0 //schedlint:ignore floateq fixture sentinel, suppressed on purpose
}
