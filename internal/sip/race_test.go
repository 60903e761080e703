//go:build race

package sip

const raceEnabled = true
