//go:build !race

package energy

const raceEnabled = false
