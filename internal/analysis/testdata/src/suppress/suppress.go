// Package suppress pins which lines an //ml4db:allow covers: a standalone
// comment covers its own line and the next, a trailing one only its own.
package suppress

func standalone(a, b float64) bool {
	//ml4db:allow floateq "standalone: covers the line below"
	return a == b
}

func trailing(a, b float64) (bool, bool) {
	x := a == b //ml4db:allow floateq "trailing: covers this line only"
	y := a != b // want "floating-point"
	return x, y
}

func wrongAnalyzer(a, b float64) bool {
	//ml4db:allow nakedpanic "names another analyzer"
	return a == b // want "floating-point"
}

func outOfRange(a, b float64) bool {
	//ml4db:allow floateq "two lines above the finding"

	return a == b // want "floating-point"
}
