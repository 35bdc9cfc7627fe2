package sched

import (
	"fmt"
	"sort"
	"sync"
)

// Factory builds a Scheduler with its package defaults. Algorithm packages
// (aco, hbo, rbs, ...) register themselves in their init functions so the
// CLI and the experiment harness can look algorithms up by name.
type Factory func() Scheduler

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register makes a scheduler constructor available under name. It panics on
// duplicates — registration happens at init time, where failing fast is the
// only sensible behaviour.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sched: duplicate registration for %q", name))
	}
	if f == nil {
		panic(fmt.Sprintf("sched: nil factory for %q", name))
	}
	registry[name] = f
}

// New builds the scheduler registered under name.
func New(name string) (Scheduler, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheduler %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists registered schedulers in sorted order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
