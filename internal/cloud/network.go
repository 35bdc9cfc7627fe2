package cloud

import (
	"fmt"
	"math"
)

// NetworkTopology models inter-node latency and bandwidth, the analogue of
// CloudSim's NetworkTopology (the "default network topology" the paper's
// §VI mentions). Nodes are named (brokers, datacenters); links are
// undirected with a latency and a bandwidth; all-pairs delays are computed
// with Floyd–Warshall over latency, tracking the bottleneck bandwidth along
// each chosen path.
//
// The paper's experiments run with networking effects "negligible", so the
// topology is optional. Where one is used, TransferTime gives the delay of a
// cloudlet's submission to its VM: the path latency plus its input-file
// transfer time.
type NetworkTopology struct {
	names map[string]int
	lat   [][]float64 // direct-link latency (s); +Inf when absent
	bw    [][]float64 // direct-link bandwidth (Mbps); 0 when absent

	built  bool
	delay  [][]float64 // all-pairs latency along shortest paths
	pathBw [][]float64 // bottleneck bandwidth along those paths
}

// NewNetworkTopology returns an empty topology.
func NewNetworkTopology() *NetworkTopology {
	return &NetworkTopology{names: map[string]int{}}
}

// AddNode registers a named node and returns its index; re-adding an
// existing name returns the existing index.
func (t *NetworkTopology) AddNode(name string) int {
	if i, ok := t.names[name]; ok {
		return i
	}
	i := len(t.lat)
	t.names[name] = i
	for r := range t.lat {
		t.lat[r] = append(t.lat[r], math.Inf(1))
		t.bw[r] = append(t.bw[r], 0)
	}
	latRow := make([]float64, i+1)
	bwRow := make([]float64, i+1)
	for c := range latRow {
		latRow[c] = math.Inf(1)
	}
	latRow[i] = 0
	t.lat = append(t.lat, latRow)
	t.bw = append(t.bw, bwRow)
	t.built = false
	return i
}

// AddLink connects two existing nodes with the given latency (seconds) and
// bandwidth (Mbps). Links are undirected; re-adding overwrites.
func (t *NetworkTopology) AddLink(a, b string, latency, bandwidth float64) error {
	ia, ok := t.names[a]
	if !ok {
		return fmt.Errorf("cloud: unknown topology node %q", a)
	}
	ib, ok := t.names[b]
	if !ok {
		return fmt.Errorf("cloud: unknown topology node %q", b)
	}
	if ia == ib {
		return fmt.Errorf("cloud: self-link on %q", a)
	}
	if latency < 0 || bandwidth <= 0 {
		return fmt.Errorf("cloud: invalid link %q-%q (latency %v, bw %v)", a, b, latency, bandwidth)
	}
	t.lat[ia][ib], t.lat[ib][ia] = latency, latency
	t.bw[ia][ib], t.bw[ib][ia] = bandwidth, bandwidth
	t.built = false
	return nil
}

// Build computes all-pairs shortest delays (Floyd–Warshall on latency) and
// the bottleneck bandwidth along each shortest path. It is idempotent and
// called lazily by TransferTime.
func (t *NetworkTopology) Build() {
	n := len(t.lat)
	t.delay = make([][]float64, n)
	t.pathBw = make([][]float64, n)
	for i := 0; i < n; i++ {
		t.delay[i] = append([]float64(nil), t.lat[i]...)
		t.pathBw[i] = append([]float64(nil), t.bw[i]...)
		t.pathBw[i][i] = math.Inf(1)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				via := t.delay[i][k] + t.delay[k][j]
				if via < t.delay[i][j] {
					t.delay[i][j] = via
					t.pathBw[i][j] = math.Min(t.pathBw[i][k], t.pathBw[k][j])
				}
			}
		}
	}
	t.built = true
}

// TransferTime returns the simulated seconds needed to move sizeMB from a
// to b: path latency plus size over bottleneck bandwidth. Same-node
// transfers are free. Unreachable pairs return +Inf.
func (t *NetworkTopology) TransferTime(a, b string, sizeMB float64) (float64, error) {
	ia, ib, err := t.pair(a, b)
	if err != nil {
		return 0, err
	}
	if ia == ib {
		return 0, nil
	}
	d := t.delay[ia][ib]
	if math.IsInf(d, 1) {
		return math.Inf(1), nil
	}
	if sizeMB <= 0 {
		return d, nil
	}
	return d + sizeMB/t.pathBw[ia][ib], nil
}

func (t *NetworkTopology) pair(a, b string) (int, int, error) {
	ia, ok := t.names[a]
	if !ok {
		return 0, 0, fmt.Errorf("cloud: unknown topology node %q", a)
	}
	ib, ok := t.names[b]
	if !ok {
		return 0, 0, fmt.Errorf("cloud: unknown topology node %q", b)
	}
	if !t.built {
		t.Build()
	}
	return ia, ib, nil
}

// NewStarTopology builds the conventional broker-centric star: one center
// node connected to every leaf with identical latency and bandwidth — the
// shape of CloudSim's default single-broker experiments.
func NewStarTopology(center string, leaves []string, latency, bandwidth float64) (*NetworkTopology, error) {
	t := NewNetworkTopology()
	t.AddNode(center)
	for _, leaf := range leaves {
		t.AddNode(leaf)
		if err := t.AddLink(center, leaf, latency, bandwidth); err != nil {
			return nil, err
		}
	}
	t.Build()
	return t, nil
}
