package main

import (
	"fmt"
	"strings"
)

// The GROUP BY half of the paper's production query template (§6.1.2):
//
//	SELECT Outlier K SUM(Score), G1...Gm
//	FROM   Log_Streams PARAMS(StartDate, EndDate)
//	WHERE  Predicates
//	GROUP BY G1...Gm;
//
// A node in raw-log mode (-groupby) sums its records per group; the
// composite group keys are what the shared dictionary holds.

// logRecord is one raw log event.
type logRecord struct {
	attrs map[string]string // e.g. "Market": "en-US", "Vertical": "web"
	score float64           // signed click score
}

// groupKeySep separates attribute values inside a composite group key.
// Attribute values containing the separator are rejected at key-build
// time rather than silently merging groups.
const groupKeySep = "|"

// groupKey builds the composite key of a record under the GROUP BY
// columns, in order (G1...Gm in the template).
func groupKey(groupBy []string, rec logRecord) (string, error) {
	parts := make([]string, len(groupBy))
	for i, attr := range groupBy {
		v, ok := rec.attrs[attr]
		if !ok {
			return "", fmt.Errorf("record lacks GROUP BY attribute %q", attr)
		}
		if strings.Contains(v, groupKeySep) {
			return "", fmt.Errorf("attribute %q value %q contains the %q separator", attr, v, groupKeySep)
		}
		parts[i] = v
	}
	return strings.Join(parts, groupKeySep), nil
}

// aggregateNode partially aggregates one node's records — the
// mapper-side "sum group by" (paper Figure 1).
func aggregateNode(groupBy []string, recs []logRecord) (map[string]float64, error) {
	pairs := make(map[string]float64)
	for _, rec := range recs {
		key, err := groupKey(groupBy, rec)
		if err != nil {
			return nil, err
		}
		pairs[key] += rec.score
	}
	return pairs, nil
}
