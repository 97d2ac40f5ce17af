//go:build race

package env

const raceEnabled = true
