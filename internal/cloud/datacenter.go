package cloud

import "fmt"

// Characteristics is the datacenter resource price list (the paper's
// Table VII). Prices are per resource unit per cloudlet work unit; see
// ProcessingCost in cost.go for the exact formula.
type Characteristics struct {
	CostPerMemory     float64 // $ per MB of VM RAM per kMI of work
	CostPerStorage    float64 // $ per MB of VM image per kMI of work
	CostPerBandwidth  float64 // $ per Mbps of VM bandwidth per kMI of work
	CostPerProcessing float64 // $ per second of CPU time
}

// Datacenter groups hosts under one price list, mirroring CloudSim's
// Datacenter entity. The HBO scheduler's foragers operate at this
// granularity (one forager per datacenter).
type Datacenter struct {
	ID              int
	Name            string
	Characteristics Characteristics
	Hosts           []*Host
}

// NewDatacenter returns a datacenter owning the given hosts.
func NewDatacenter(id int, name string, ch Characteristics, hosts []*Host) *Datacenter {
	dc := &Datacenter{ID: id, Name: name, Characteristics: ch, Hosts: hosts}
	for _, h := range hosts {
		if h.Datacenter != nil {
			panic(fmt.Sprintf("cloud: host %d already owned by datacenter %d", h.ID, h.Datacenter.ID))
		}
		h.Datacenter = dc
	}
	return dc
}
