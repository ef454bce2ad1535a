//go:build race

package croupier

func init() { raceEnabled = true }
