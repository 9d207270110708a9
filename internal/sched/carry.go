package sched

import (
	"slices"

	"nocsched/internal/ctg"
)

// A list scheduler re-evaluates every ready task's row each round, but a
// commit writes one PE table and the link tables on the committed task's
// incoming routes, so most rows would come back unchanged. A row scan —
// Row plus the ProbeCached calls on the task that follow — reads the
// task's keys, which are final once it is ready, and the tables its
// cached probes read. The prober records, per ready-list slot, the stamp
// the scan ran at and the PEs it probed; Carry then tells a scheduler
// whether every table those probes read is still unwritten (fresh), in
// which case the scan would return its previous result bit for bit.
//
// Whatever moves the cache base (Reset, SetContentionAware, Rewind)
// drops every record, and a slot taken by another task never matches
// the record of the one that freed it.
type rowScan struct {
	task  ctg.TaskID
	n     int32 // PEs in the slot's reads; -1: the scan cannot be carried
	stamp uint64
}

// recordScan starts ready task t's row scan in slot s.
func (p *Prober) recordScan(s int, t ctg.TaskID) {
	npe := len(p.b.peTables)
	if s >= len(p.scans) {
		p.scans = slices.Grow(p.scans, s+1-len(p.scans))[:s+1]
	}
	if need := (s + 1) * npe; need > len(p.reads) {
		p.reads = slices.Grow(p.reads, need-len(p.reads))[:need]
	}
	p.scans[s] = rowScan{task: t, stamp: p.b.stamp}
}

// noteRead adds PE k to the reads of task t's row scan in slot s.
func (p *Prober) noteRead(s int, t ctg.TaskID, k int) {
	b := p.b
	if s >= len(p.scans) || p.scans[s].task != t || p.scans[s].stamp < b.base {
		return // no current scan: a stale record may be sized for another platform
	}
	rec := &p.scans[s]
	npe := len(b.peTables)
	switch {
	case rec.n < 0:
	case int(rec.n) == npe:
		// More reads than PEs: the scan probed some PE twice, and
		// the record cannot vouch for it.
		rec.n = -1
	default:
		p.reads[s*npe+int(rec.n)] = int32(k)
		rec.n++
	}
}

// dropScan forgets ready task t's row scan, if it has one.
func (p *Prober) dropScan(t ctg.TaskID) {
	if s := int(p.b.slot[t]); s >= 0 && s < len(p.scans) && p.scans[s].task == t {
		p.scans[s].task = -1
	}
}

// Carry reports whether ready task t's last row scan on this prober
// would return its previous result bit for bit if run now: it ran since
// the cache base last moved, probed only through ProbeCached, and no
// table any of its probes read has been written since. moved names a
// PE whose state outside the tables changed since the previous round —
// DLS's finish time TF of the PE the last commit landed on — and a scan
// that probed it is not carried; pass -1 when there is none.
//
// A scheduler calls Carry for every ready task every round, keeps the
// result of every scan, and reuses a task's last result where Carry
// holds. A row Carry refuses is forgotten: it must be scanned again
// before it can be carried.
func (p *Prober) Carry(t ctg.TaskID, moved int) bool {
	b := p.b
	s := int(b.slot[t])
	if s < 0 || s >= len(p.scans) {
		return false
	}
	rec := &p.scans[s]
	if rec.task != t {
		return false
	}
	ok := rec.n >= 0 && rec.stamp >= b.base
	if ok {
		npe := len(b.peTables)
		reads := p.reads[s*npe : s*npe+int(rec.n)]
		// The PE tables first: they are one stamp each, and the last
		// commit wrote the one most rows it invalidates probed.
		for _, k := range reads {
			if int(k) == moved || b.peStamp[k] > rec.stamp {
				ok = false
				break
			}
		}
		for i := 0; ok && i < len(reads); i++ {
			ok = b.fresh(rec.stamp, t, int(reads[i]))
		}
	}
	if !ok {
		rec.task = -1
		return false
	}
	p.work.RowsCarried++
	return true
}
