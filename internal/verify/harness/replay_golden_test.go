package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"nocsched/internal/sim"
	"nocsched/internal/verify/workloadgen"
)

// replayDigests pins, per scheduler and router buffer depth, the
// SHA-256 of every replay of that scheduler's schedules over
// replayInputs: each packet's results, the cycle and stall totals, the
// bits of the measured energy and mean hop count, the per-link flit
// counts, and the JSONL trace bytes. Any change to the simulator's
// injection order, arbitration, backpressure or energy accounting
// changes a digest.
var replayDigests = map[string]string{
	"eas/1": "719b9b74ec3674db58a5a6506934d19a0f733712be3f9b3a8e13f42c035ad47b",
	"eas/2": "2e160d9d7f8bf70f025c7ee9bf09a28c007116f2a7be3caa59d5b8b466765d71",
	"eas/4": "a77fc1ba00869f6bee1494b7f0c9a8f428098b5bdb0c7b40cb4e973287205dc6",
	"edf/1": "6c1e817efb095dc464dee3bbc72c504c24a4f3a9b29f7427b6829aba7b0fbf75",
	"edf/2": "199278e4dbf9d7f4fed6cc6bfe90aada40c2575dd424e09f821bede4ca574efa",
	"edf/4": "51b65c0381a10dc064b2faa16a1aa8f924677004d67a1a8dfe8490c747e1f7d9",
	"dls/1": "98e5ab0761c1357591a818bba27f8b1ea17a8f729fbbd9d634563a76997361b8",
	"dls/2": "05b912ea6e8287d866f68bd5039690f97a76e84240034c041e84f3871a49b7cd",
	"dls/4": "6e533c535fdbd0dce7a90fb60e9148bd6824af166aa0ff0d70949147ce3c890d",
}

// replayInputs is workloadgen.Golden() (which opens with Corpus(1))
// followed by Corpus seeds 2 to 4.
func replayInputs(t *testing.T) []workloadgen.Workload {
	t.Helper()
	ws, err := workloadgen.Golden()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(2); seed <= 4; seed++ {
		c, err := workloadgen.Corpus(seed)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, c...)
	}
	return ws
}

// TestReplayGoldenDigests pins the flit-level replay of every schedule
// EAS, EDF and DLS emit over replayInputs, at buffer depths 1, 2 and 4.
func TestReplayGoldenDigests(t *testing.T) {
	outcomes := Run(replayInputs(t), Options{SkipSim: true})
	for _, bufferFlits := range []int{1, 2, 4} {
		for _, alg := range Schedulers {
			key := fmt.Sprintf("%s/%d", alg, bufferFlits)
			h := sha256.New()
			for i := range outcomes {
				o := &outcomes[i]
				if o.Scheduler != alg {
					continue
				}
				if o.Err != nil {
					t.Fatalf("%s/%s: %v", o.Workload, alg, o.Err)
				}
				res, err := sim.Replay(o.Schedule, sim.Options{BufferFlits: bufferFlits, Trace: h})
				if err != nil {
					t.Fatalf("%s/%s: replay: %v", o.Workload, key, err)
				}
				if res.TraceErr != nil {
					t.Fatalf("%s/%s: trace: %v", o.Workload, key, res.TraceErr)
				}
				hashResult(h, res)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != replayDigests[key] {
				t.Errorf("%s replay digest %s, want %s", key, got, replayDigests[key])
			}
		}
	}
}

// hashResult writes a replay's results to h in a fixed binary layout.
func hashResult(h hash.Hash, res *sim.Result) {
	put := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	put(int64(len(res.Packets)))
	for _, p := range res.Packets {
		put(int64(p.Edge))
		put(p.Injected)
		put(p.Delivered)
		put(p.ScheduledFinish)
		put(int64(p.Hops))
		put(p.Flits)
		put(p.StallCycles)
	}
	put(res.Cycles)
	put(res.TotalStalls)
	put(int64(math.Float64bits(res.MeasuredCommEnergy)))
	put(int64(math.Float64bits(res.AvgHops)))
	put(int64(len(res.LinkFlits)))
	for _, n := range res.LinkFlits {
		put(n)
	}
}
