package exp

import (
	"strconv"
	"testing"
	"time"

	"darwin/internal/faults"
	"darwin/internal/server"
)

// fastOverload returns a timing-robust overload config for CI: rate-based
// faults only (no wall-clock outage window), a short stall that still blows
// the client deadline, small trace, tiny latencies, and burst pacing tight
// enough that the run stays fast.
func fastOverload() OverloadConfig {
	oc := DefaultOverloadConfig()
	oc.Prototype.OriginLatency = 200 * time.Microsecond
	oc.Prototype.DCLatency = 50 * time.Microsecond
	oc.Prototype.Concurrency = 8
	oc.Prototype.TraceLen = 800
	oc.Faults = faults.Config{
		Seed:      42,
		ErrorRate: 0.10,
		StallRate: 0.15,
		Stall:     150 * time.Millisecond,
	}
	oc.Deadline = 50 * time.Millisecond
	// The 50 ms deadline sits below the production 50 ms MinFetchBudget
	// floor; without a smaller floor every cold miss is born doomed and the
	// cache never warms.
	oc.Overload.MinFetchBudget = 5 * time.Millisecond
	oc.Burst = server.Burst{Seed: 11, Gap: 200 * time.Microsecond, Every: 200, Len: 50}
	oc.Resilience = server.DefaultResilience()
	oc.Resilience.BackoffBase = 1 * time.Millisecond
	return oc
}

func TestOverloadProtectedBeatsRetryOnly(t *testing.T) {
	rep, err := OverloadReport(fastOverload())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	control, protected := rep.Rows[0], rep.Rows[1]
	if control[0] != "retry-only" || protected[0] != "protected" {
		t.Fatalf("arm order: %v / %v", control[0], protected[0])
	}
	parse := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("row %v col %d: %v", row, col, err)
		}
		return v
	}
	const goodputCol, p99Col = 3, 7
	cg, pg := parse(control, goodputCol), parse(protected, goodputCol)
	cp99, pp99 := parse(control, p99Col), parse(protected, p99Col)
	// The headline claim: under flash crowd + brownout, the protected arm
	// keeps strictly higher goodput and strictly lower tail latency — the
	// retry-only proxy waits out every 150 ms stall past the 50 ms deadline
	// while the protected arm hedges or sheds it.
	if pg <= cg {
		t.Errorf("protected goodput %.4f <= retry-only %.4f", pg, cg)
	}
	if pp99 >= cp99 {
		t.Errorf("protected p99 %.2fms >= retry-only %.2fms", pp99, cp99)
	}
}

func TestOverloadHedgesEngage(t *testing.T) {
	rep, err := OverloadReport(fastOverload())
	if err != nil {
		t.Fatal(err)
	}
	const hedgesCol = 10
	protected := rep.Rows[1]
	n, err := strconv.Atoi(protected[hedgesCol])
	if err != nil {
		t.Fatal(err)
	}
	// 15% stalls at 150 ms against a 25 ms hedge delay: the protected arm
	// must launch backup fetches; zero means hedging never engaged.
	if n == 0 {
		t.Error("no hedged fetches recorded in the protected arm")
	}
}
