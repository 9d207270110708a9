package sched

import "nocsched/internal/ctg"

// CommitLog returns the tasks committed since the builder's last Reset,
// in commit order, so a test outside the package can replay a solve.
func (b *Builder) CommitLog() []ctg.TaskID { return b.log }
