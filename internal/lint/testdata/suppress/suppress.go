// Package suppress is a darwinlint golden fixture for //lint:ignore
// directive handling: well-formed directives on the same or preceding line
// suppress their rule; wrong rules and malformed directives do not, and a
// directive that suppresses nothing is itself reported.
package suppress

import "time"

func suppressedAbove() int64 {
	//lint:ignore determinism fixture demonstrates sanctioned wall-clock use
	return time.Now().Unix()
}

func suppressedSameLine() int64 {
	return time.Now().Unix() //lint:ignore determinism same-line directives also suppress
}

func wrongRule() int64 {
	return time.Now().Unix() /* want "wall-clock time.Now" */ /* want "unused //lint:ignore lockorder suppression" */ //lint:ignore lockorder a directive for another rule does not suppress
}

func malformed() int64 {
	return time.Now().Unix() /* want "wall-clock time.Now" */ /* want "malformed //lint:ignore directive" */ //lint:ignore determinism
}
