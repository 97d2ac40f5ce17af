//go:build !race

package env

const raceEnabled = false
