package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/ctg/ctgref"
	"nocsched/internal/sched"
	"nocsched/internal/verify/workloadgen"
)

// refSchedule and its parts mirror the schedule JSON form field for
// field, so encoding/json can serve as the reference for
// Schedule.AppendJSON (ctgref holds the graph's).
type refSchedule struct {
	Algorithm string           `json:"algorithm"`
	Graph     string           `json:"graph"`
	Platform  string           `json:"platform"`
	Tasks     []refPlacement   `json:"tasks"`
	Trans     []refTransaction `json:"transactions"`
}

type refPlacement struct {
	Task  ctg.TaskID `json:"task"`
	Name  string     `json:"name"`
	PE    int        `json:"pe"`
	Start int64      `json:"start"`
	End   int64      `json:"end"`
}

type refTransaction struct {
	Edge  ctg.EdgeID `json:"edge"`
	Src   int        `json:"src_pe"`
	Dst   int        `json:"dst_pe"`
	Start int64      `json:"start"`
	End   int64      `json:"end"`
}

func scheduleRef(s *sched.Schedule) refSchedule {
	r := refSchedule{Algorithm: s.Algorithm, Graph: s.Graph.Name, Platform: s.ACG.Platform().Topo.Name()}
	for _, p := range s.Tasks {
		r.Tasks = append(r.Tasks, refPlacement{Task: p.Task, Name: s.Graph.Task(p.Task).Name, PE: p.PE, Start: p.Start, End: p.Finish})
	}
	for _, tr := range s.Transactions {
		r.Trans = append(r.Trans, refTransaction{Edge: tr.Edge, Src: tr.SrcPE, Dst: tr.DstPE, Start: tr.Start, End: tr.Finish})
	}
	return r
}

// indented encodes v as a json.Encoder with two-space indent does.
func indented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCodecMatchesEncodingJSON: over the golden and conformance
// corpora, Graph.MarshalJSON, Graph.WriteJSON and every scheduler's
// Schedule.WriteJSON write exactly encoding/json's bytes for the same
// values, and ctg.ReadJSON reads the graph back unchanged.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	golden, err := workloadgen.Golden()
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workloadgen.Corpus(corpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := Run(append(golden, corpus...), Options{})
	seen := make(map[*ctg.Graph]bool)
	for _, o := range outcomes {
		if o.Err != nil {
			continue
		}
		g := o.Schedule.Graph
		if !seen[g] {
			seen[g] = true
			ref := ctgref.Of(g)
			compact, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := g.MarshalJSON(); err != nil || !bytes.Equal(got, compact) {
				t.Fatalf("%s: MarshalJSON (err %v):\n%s\nwant\n%s", o.Workload, err, got, compact)
			}
			var got bytes.Buffer
			if err := g.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if want := indented(t, ref); !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s: Graph.WriteJSON:\n%s\nwant\n%s", o.Workload, got.Bytes(), want)
			}
			back, err := ctg.ReadJSON(bytes.NewReader(compact))
			if err != nil {
				t.Fatalf("%s: ReadJSON: %v", o.Workload, err)
			}
			if again, _ := back.MarshalJSON(); !bytes.Equal(again, compact) {
				t.Fatalf("%s: ReadJSON changed the graph", o.Workload)
			}
		}
		var got bytes.Buffer
		if err := o.Schedule.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if want := indented(t, scheduleRef(o.Schedule)); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s/%s: Schedule.WriteJSON:\n%s\nwant\n%s", o.Workload, o.Scheduler, got.Bytes(), want)
		}
	}
	if len(seen) != len(golden)+len(corpus) {
		t.Fatalf("checked %d graphs, want %d", len(seen), len(golden)+len(corpus))
	}
}
