//go:build race

package block

const raceEnabled = true
