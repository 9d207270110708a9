package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"nocsched/internal/ctg"
	"nocsched/internal/noc"
	"nocsched/internal/telemetry"
)

// Event is one line of the simulator's JSONL trace: a flit movement, an
// injection, or a delivery.
type Event struct {
	Cycle int64      `json:"cycle"`
	Kind  string     `json:"kind"` // "inject", "hop", "deliver"
	Edge  ctg.EdgeID `json:"edge"`
	Link  noc.LinkID `json:"link,omitempty"`
	Tail  bool       `json:"tail,omitempty"`
}

// traceSink serializes events to a writer as JSON lines over the
// telemetry JSONL sink, which keeps the historical line schema
// byte-identical (guarded by the golden trace test) and records the
// first write error instead of swallowing it — Replay surfaces it as
// Result.TraceErr. A sink over a nil writer drops everything at zero
// cost.
type traceSink struct {
	sink *telemetry.JSONLSink
}

func newTraceSink(w io.Writer) traceSink {
	return traceSink{sink: telemetry.NewJSONLSink(w)}
}

func (t traceSink) emit(e Event) { t.sink.EmitValue(e) }

// err returns the first trace write error, or nil.
func (t traceSink) err() error { return t.sink.Err() }

// ReadTrace decodes a JSONL trace produced via Options.Trace.
func ReadTrace(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var events []Event
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("sim: trace decode: %w", err)
		}
		events = append(events, e)
	}
	return events, nil
}
