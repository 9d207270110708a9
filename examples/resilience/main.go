// Resilience: replay a static schedule against hardware faults that
// strike while the system is running, on one 3x3 benchmark:
//
//  1. Transient link glitches corrupt packets in flight; the
//     end-to-end retransmission protocol buys the deadlines back for a
//     measurable energy premium (retry energy, Eq. 2 accounting).
//  2. The busiest tile's router dies mid-run (a permanent fault
//     scenario read from JSON): every packet still to cross it is
//     lost, and the impact assessment shows which deadlines the static
//     schedule can no longer meet.
//  3. Random permanent-fault scenarios, reproducible from a seed.
//
// Run with: go run ./examples/resilience
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"nocsched"
)

func main() {
	platform, err := nocsched.NewHeterogeneousMesh(3, 3, nocsched.RouteXY, 256)
	if err != nil {
		log.Fatal(err)
	}
	acg, err := nocsched.BuildACG(platform, nocsched.DefaultEnergyModel())
	if err != nil {
		log.Fatal(err)
	}
	g, err := nocsched.GenerateTGFF(nocsched.TGFFParams{
		Name: "resil-demo", Seed: 11, NumTasks: 36, MaxInDegree: 3,
		LocalityWindow: 12, TaskTypes: 8, ExecMin: 20, ExecMax: 200,
		HeteroSpread: 0.5, VolumeMin: 256, VolumeMax: 8192,
		ControlEdgeFraction: 0.1, DeadlineLaxity: 2.0, DeadlineFraction: 1,
		Platform: platform,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := nocsched.EAS(g, acg, nocsched.EASOptions{})
	if err != nil {
		log.Fatal(err)
	}
	s := res.Schedule
	fmt.Printf("fault-free: %d tasks, %.0f nJ, makespan %d, misses %d\n\n",
		g.NumTasks(), s.TotalEnergy(), s.Makespan(), len(s.DeadlineMisses()))

	// --- 1. Transient glitches and retransmission ---------------------
	// Open a drop window over the first few routed transactions: every
	// flit crossing that link during the window is corrupted, so the
	// first attempt of each targeted packet is lost.
	var storm []nocsched.SimFault
	for _, tr := range s.Transactions {
		if len(tr.Route) == 0 || len(storm) >= 4 {
			continue
		}
		storm = append(storm, nocsched.SimFault{
			Kind:     nocsched.SimFaultTransientLink,
			Link:     tr.Route[0],
			Cycle:    tr.Start,
			Duration: tr.Finish - tr.Start + int64(len(tr.Route)) + 4,
		})
	}
	for _, budget := range []int{0, 3} {
		sim, err := nocsched.Replay(s, nocsched.SimOptions{
			Faults: storm,
			Retx:   nocsched.RetxOptions{MaxRetries: budget},
		})
		if err != nil {
			log.Fatal(err)
		}
		im, err := nocsched.AssessImpact(s, sim)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("transient storm, retries=%d: dropped %d, retransmitted %d, "+
			"hit ratio %.0f%%, retry energy %.1f%% of comm\n",
			budget, sim.Failures, sim.Retransmitted, 100*im.HitRatio(),
			100*sim.RetryEnergy/sim.MeasuredCommEnergy)
	}

	// --- 2. A router dies mid-run --------------------------------------
	// A permanent fault scenario in its JSON form: the router of the
	// busiest tile dies halfway through the schedule. Packets that still
	// need it are dropped and starve their consumers, and the tasks on
	// its tile that have not finished by then are stranded; retries
	// cannot route around dead hardware.
	load := make(map[int]int)
	busiest := 0
	for _, tp := range s.Tasks {
		if load[tp.PE]++; load[tp.PE] > load[busiest] {
			busiest = tp.PE
		}
	}
	sc, err := nocsched.ReadFaultScenario(strings.NewReader(fmt.Sprintf(
		`{"name": "busiest-router", "routers": [%d], "cycle": %d}`, busiest, s.Makespan()/2)))
	if err != nil {
		log.Fatal(err)
	}
	if err := sc.Validate(platform); err != nil {
		log.Fatal(err)
	}
	stranded := 0
	for _, tp := range s.Tasks {
		if sc.DeadPE(nocsched.TileID(tp.PE)) && tp.Finish > sc.Cycle {
			stranded++
		}
	}
	sim, im := replay(s, sc.SimFaults())
	fmt.Printf("\nt=%d router %d dies: %d tasks stranded on its tile, dropped %d of %d packets, "+
		"hit ratio %.0f%%\n", sc.Cycle, busiest, stranded, sim.Failures, len(sim.Packets), 100*im.HitRatio())

	// --- 3. Random permanent faults --------------------------------------
	// Reproducible two-fault scenarios drawn from a seed, injected from
	// cycle 0; the first one is printed in its JSON form.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3; trial++ {
		sc := nocsched.RandomFaultScenario(rng, platform, 2)
		if trial == 0 {
			fmt.Println()
			if err := sc.WriteJSON(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
		sim, im := replay(s, sc.SimFaults())
		fmt.Printf("random scenario %d (%d PEs, %d routers, %d links dead): dropped %d, hit ratio %.0f%%\n",
			trial, len(sc.PEs), len(sc.Routers), len(sc.Links), sim.Failures, 100*im.HitRatio())
	}
}

// replay runs the schedule through the simulator with the faults
// injected and a retry budget of 3, and assesses the deadline impact.
func replay(s *nocsched.Schedule, faults []nocsched.SimFault) (*nocsched.SimResult, *nocsched.SimImpact) {
	sim, err := nocsched.Replay(s, nocsched.SimOptions{
		Faults: faults,
		Retx:   nocsched.RetxOptions{MaxRetries: 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	im, err := nocsched.AssessImpact(s, sim)
	if err != nil {
		log.Fatal(err)
	}
	return sim, im
}
