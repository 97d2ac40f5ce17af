//go:build race

package gddr

const raceEnabled = true
