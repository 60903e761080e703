//go:build race

package chem

const raceEnabled = true
