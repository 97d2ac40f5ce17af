package analysis

import (
	"fmt"
	"regexp"
	"strings"
)

// MetricSubsystems are the approved <subsystem> segments: the layers that
// own instruments (see DESIGN.md "Metric naming contract").
var MetricSubsystems = []string{"engine", "fleet", "http", "lp", "router", "train"}

// metricNamePattern is the structural grammar: lowercase snake_case with at
// least three segments (gddr, subsystem, name...).
var metricNamePattern = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+){2,}$`)

// forbiddenUnits are trailing unit segments the contract bans: durations
// are always base-unit seconds so histograms aggregate across subsystems.
var forbiddenUnits = map[string]string{
	"ms":           "seconds",
	"millis":       "seconds",
	"milliseconds": "seconds",
	"us":           "seconds",
	"micros":       "seconds",
	"microseconds": "seconds",
	"ns":           "seconds",
	"nanos":        "seconds",
	"nanoseconds":  "seconds",
	"minutes":      "seconds",
	"hours":        "seconds",
	"count":        "total",
}

// CheckMetricName validates one metric name against the DESIGN.md metric
// naming contract: names follow gddr_<subsystem>_<name>_<unit> with an
// approved subsystem, counters end in _total (and only counters do), and
// durations are seconds, never milliseconds or any other non-base unit.
// kind is the instrument kind as exposed by metrics.Point.Type ("counter",
// "gauge" or "histogram"). The registry-walking tests (TestMetricNameGrammar,
// TestGatewayMetricNameGrammar) hold every live registration to it, literal
// and dynamically built names alike.
func CheckMetricName(kind, name string) error {
	if !metricNamePattern.MatchString(name) {
		return fmt.Errorf("metric %q does not match gddr_<subsystem>_<name>_<unit> (lowercase snake_case, >= 3 segments)", name)
	}
	segs := strings.Split(name, "_")
	if segs[0] != "gddr" {
		return fmt.Errorf("metric %q must carry the gddr_ namespace prefix", name)
	}
	if !contains(MetricSubsystems, segs[1]) {
		return fmt.Errorf("metric %q uses unknown subsystem %q (approved: %s)", name, segs[1], strings.Join(MetricSubsystems, ", "))
	}
	last := segs[len(segs)-1]
	if want, bad := forbiddenUnits[last]; bad {
		return fmt.Errorf("metric %q ends in non-base unit %q; the contract requires %q", name, last, want)
	}
	switch kind {
	case "counter":
		if last != "total" {
			return fmt.Errorf("counter %q must end in _total", name)
		}
	default:
		if last == "total" {
			return fmt.Errorf("%s %q must not end in _total (reserved for counters)", kind, name)
		}
	}
	return nil
}
