//go:build race

package eas

// raceEnabled lets tests skip allocation guards under -race, whose
// instrumentation allocates on paths that are otherwise allocation-free.
const raceEnabled = true
