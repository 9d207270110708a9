package sched

import "fmt"

// Diff compares two schedules of the same problem instance and returns
// a human-readable description of the first discrepancy, or "" when the
// schedules are identical: same task placements (PE, start, finish),
// same transaction placements (PEs, slot, route) and exactly equal
// total energy. It is the oracle of the differential tests: builder
// reuse, the probe cache and the lazy row scans promise bit-identical
// schedules, not merely equivalent-cost ones.
func Diff(a, b *Schedule) string {
	if len(a.Tasks) != len(b.Tasks) {
		return fmt.Sprintf("task counts differ: %d vs %d", len(a.Tasks), len(b.Tasks))
	}
	if len(a.Transactions) != len(b.Transactions) {
		return fmt.Sprintf("transaction counts differ: %d vs %d", len(a.Transactions), len(b.Transactions))
	}
	for i := range a.Tasks {
		ta, tb := &a.Tasks[i], &b.Tasks[i]
		if ta.PE != tb.PE || ta.Start != tb.Start || ta.Finish != tb.Finish {
			return fmt.Sprintf("task %d: PE %d [%d,%d) vs PE %d [%d,%d)",
				i, ta.PE, ta.Start, ta.Finish, tb.PE, tb.Start, tb.Finish)
		}
	}
	for i := range a.Transactions {
		ra, rb := &a.Transactions[i], &b.Transactions[i]
		if ra.SrcPE != rb.SrcPE || ra.DstPE != rb.DstPE ||
			ra.Start != rb.Start || ra.Finish != rb.Finish {
			return fmt.Sprintf("transaction %d: %d->%d [%d,%d) vs %d->%d [%d,%d)",
				i, ra.SrcPE, ra.DstPE, ra.Start, ra.Finish,
				rb.SrcPE, rb.DstPE, rb.Start, rb.Finish)
		}
		if len(ra.Route) != len(rb.Route) {
			return fmt.Sprintf("transaction %d: route lengths %d vs %d", i, len(ra.Route), len(rb.Route))
		}
		for j := range ra.Route {
			if ra.Route[j] != rb.Route[j] {
				return fmt.Sprintf("transaction %d: routes diverge at hop %d", i, j)
			}
		}
	}
	// Exact equality, not a tolerance: both schedules must have summed
	// the same float64 terms in the same order.
	if ea, eb := a.TotalEnergy(), b.TotalEnergy(); ea != eb {
		return fmt.Sprintf("total energy: %v vs %v", ea, eb)
	}
	return ""
}
