package experiments

import (
	"strings"
	"testing"
)

func TestExtArrivalsBurstGainLargest(t *testing.T) {
	rep, err := defaultExec().ExtArrivals(50)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(rep.Table.CSV()), "\n")[1:]
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	burst := cell(t, rows[0], -1)
	uniform := cell(t, rows[2], -1)
	if burst <= uniform {
		t.Errorf("burst reduction (%.1f%%) should exceed uniform (%.1f%%)", burst, uniform)
	}
}
