//go:build !race

package eas

const raceEnabled = false
