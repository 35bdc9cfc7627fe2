// Package trace records and renders execution timelines: per-cloudlet
// submit/start/finish events, CSV export for external tooling, and a
// terminal Gantt view of per-VM activity. It consumes the records the
// broker leaves on finished cloudlets, so tracing costs nothing during the
// simulation itself.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/sim"
)

// Kind labels a timeline event.
type Kind int

// Event kinds.
const (
	Submit Kind = iota
	Start
	Finish
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Submit:
		return "submit"
	case Start:
		return "start"
	case Finish:
		return "finish"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one timeline entry.
type Event struct {
	Time     sim.Time
	Kind     Kind
	Cloudlet int
	VM       int
}

// Timeline is an ordered sequence of events.
type Timeline struct {
	events []Event
}

// FromFinished builds a Timeline from executed cloudlets, ordered by time
// with (submit < start < finish) tie-breaking.
func FromFinished(finished []*cloud.Cloudlet) *Timeline {
	tl := &Timeline{events: make([]Event, 0, 3*len(finished))}
	for _, c := range finished {
		vm := -1
		if c.VM != nil {
			vm = c.VM.ID
		}
		tl.events = append(tl.events,
			Event{Time: c.SubmitTime, Kind: Submit, Cloudlet: c.ID, VM: vm},
			Event{Time: c.StartTime, Kind: Start, Cloudlet: c.ID, VM: vm},
			Event{Time: c.FinishTime, Kind: Finish, Cloudlet: c.ID, VM: vm},
		)
	}
	sort.SliceStable(tl.events, func(i, j int) bool {
		if tl.events[i].Time != tl.events[j].Time {
			return tl.events[i].Time < tl.events[j].Time
		}
		return tl.events[i].Kind < tl.events[j].Kind
	})
	return tl
}

// Events returns the ordered event list.
func (t *Timeline) Events() []Event { return t.events }

// Len returns the number of events.
func (t *Timeline) Len() int { return len(t.events) }

// WriteCSV emits the timeline as CSV (time,kind,cloudlet,vm).
func (t *Timeline) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "time,kind,cloudlet,vm"); err != nil {
		return err
	}
	for _, e := range t.events {
		if _, err := fmt.Fprintf(w, "%g,%s,%d,%d\n", e.Time, e.Kind, e.Cloudlet, e.VM); err != nil {
			return err
		}
	}
	return nil
}

// Gantt renders per-VM activity as a text chart: one row per VM, '#' where
// at least one cloudlet was executing. Width is the number of time columns.
func Gantt(finished []*cloud.Cloudlet, width int) string {
	if width < 10 {
		width = 10
	}
	if len(finished) == 0 {
		return "(no executions)\n"
	}
	var horizon sim.Time
	byVM := map[int][][2]sim.Time{}
	vmIDs := []int{}
	for _, c := range finished {
		if c.VM == nil {
			continue
		}
		if c.FinishTime > horizon {
			horizon = c.FinishTime
		}
		if _, seen := byVM[c.VM.ID]; !seen {
			vmIDs = append(vmIDs, c.VM.ID)
		}
		byVM[c.VM.ID] = append(byVM[c.VM.ID], [2]sim.Time{c.StartTime, c.FinishTime})
	}
	if horizon == 0 {
		return "(no executions)\n"
	}
	sort.Ints(vmIDs)

	var b strings.Builder
	fmt.Fprintf(&b, "time 0 .. %.3gs, one column = %.3gs\n", horizon, horizon/sim.Time(width))
	for _, id := range vmIDs {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, span := range byVM[id] {
			lo := int(span[0] / horizon * sim.Time(width))
			hi := int(span[1] / horizon * sim.Time(width))
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				row[i] = '#'
			}
		}
		fmt.Fprintf(&b, "vm%-5d |%s|\n", id, string(row))
	}
	return b.String()
}
