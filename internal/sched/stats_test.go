package sched

import (
	"bytes"
	"strings"
	"testing"
)

func TestUtilization(t *testing.T) {
	g, acg, ids := testRig(t)
	s := handSchedule(t, g, acg, ids)
	pes, links := s.Utilization()

	if len(pes) != 4 {
		t.Fatalf("PE stats count %d", len(pes))
	}
	// PE0 runs task a [0,10); makespan 32.
	if pes[0].Tasks != 1 || pes[0].BusyTime != 10 {
		t.Errorf("PE0 stats %+v", pes[0])
	}
	if got := pes[0].Utilization; got < 0.31 || got > 0.32 {
		t.Errorf("PE0 utilization %v", got)
	}
	// PE1 runs b and c: 20 busy.
	if pes[1].Tasks != 2 || pes[1].BusyTime != 20 {
		t.Errorf("PE1 stats %+v", pes[1])
	}
	if pes[2].Tasks != 0 || pes[3].Tasks != 0 {
		t.Error("idle PEs have tasks")
	}
	// Exactly the links of route PE0->PE1 carry traffic.
	route := acg.Route(0, 1)
	busy := 0
	for _, l := range links {
		if l.BusyTime > 0 {
			busy++
			found := false
			for _, r := range route {
				if r == l.Link {
					found = true
				}
			}
			if !found {
				t.Errorf("unexpected traffic on link %d", l.Link)
			}
			if l.Transactions != 1 || l.BusyTime != 2 || l.Volume != 200 {
				t.Errorf("link stats %+v", l)
			}
		}
	}
	if busy != len(route) {
		t.Errorf("%d busy links, want %d", busy, len(route))
	}
}

func TestRenderUtilization(t *testing.T) {
	g, acg, ids := testRig(t)
	s := handSchedule(t, g, acg, ids)
	var buf bytes.Buffer
	s.RenderUtilization(&buf, 5)
	out := buf.String()
	for _, want := range []string{"utilization", "cpu-hp", "link"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	g, acg, ids := testRig(t)
	s := handSchedule(t, g, acg, ids)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf, g, acg)
	if err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != s.Algorithm {
		t.Errorf("algorithm %q", back.Algorithm)
	}
	if back.TotalEnergy() != s.TotalEnergy() || back.Makespan() != s.Makespan() {
		t.Error("round trip changed schedule economics")
	}
	for i := range s.Tasks {
		if back.Tasks[i] != s.Tasks[i] {
			t.Errorf("task %d placement changed: %+v vs %+v", i, back.Tasks[i], s.Tasks[i])
		}
	}
	_ = ids
}

func TestScheduleJSONRejectsMismatch(t *testing.T) {
	g, acg, ids := testRig(t)
	s := handSchedule(t, g, acg, ids)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Wrong graph name.
	other := g.Clone()
	other.Name = "different"
	if _, err := ReadJSON(bytes.NewReader(buf.Bytes()), other, acg); err == nil {
		t.Error("mismatched graph accepted")
	}
	// Corrupted placement: make the schedule invalid.
	corrupted := strings.Replace(buf.String(), `"start": 12`, `"start": 5`, 1)
	if _, err := ReadJSON(strings.NewReader(corrupted), g, acg); err == nil {
		t.Error("invalid schedule accepted on import")
	}
	// Garbage input.
	if _, err := ReadJSON(strings.NewReader("{"), g, acg); err == nil {
		t.Error("garbage accepted")
	}
}
