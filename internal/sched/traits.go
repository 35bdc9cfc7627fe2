package sched

import "fmt"

// Traits is per-scheduler correctness metadata declared alongside
// registration. The property-testing harness (internal/check) reads it to
// decide which invariants apply to which algorithm: every scheduler is
// subject to conservation, determinism, and the differential oracle, but
// e.g. permutation invariance only holds for algorithms whose placement
// decisions do not depend on submission order (RBS's random-walk admission
// is order-dependent, so it must not be declared invariant).
//
// Traits are declarative claims, not measurements: declaring a trait opts
// the scheduler into the corresponding check, and an undeclared trait simply
// skips it. Declare conservatively.
type Traits struct {
	// PermutationInvariant claims that on workloads of identical cloudlets,
	// permuting the submission order leaves the assignment's estimated
	// makespan (Eq. 8) unchanged. True for order-free mappers (round-robin,
	// EFT variants, EDF); false for algorithms whose randomness or group
	// bookkeeping is consumed per submission position (RBS).
	PermutationInvariant bool
}

var traits = map[string]Traits{}

// DeclareTraits records correctness metadata for a registered scheduler.
// Like Register it runs at init time and panics on duplicates, so a package
// cannot silently overwrite another's claims.
func DeclareTraits(name string, t Traits) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := traits[name]; dup {
		panic(fmt.Sprintf("sched: duplicate traits declaration for %q", name))
	}
	traits[name] = t
}

// TraitsOf returns the declared traits for name. Undeclared schedulers get
// the zero Traits (no optional invariants claimed) and ok=false.
func TraitsOf(name string) (Traits, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	t, ok := traits[name]
	return t, ok
}
