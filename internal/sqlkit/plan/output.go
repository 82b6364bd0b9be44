package plan

// Output is a statement's requested result: which columns come back, in
// which row order, and how many rows. Like join conditions and aggregate
// specs it names base columns as (table position, column) references, so the
// SQL front end can state it and the executor — which alone knows where a
// plan keeps each column — can apply it before it builds a single row. It is
// not part of a plan's identity: the plan cache and the query store key on
// the SPJ core, and one cached plan serves every Output.
type Output struct {
	// Cols is the select list, in output order; duplicates are allowed.
	Cols []AggCol
	// OrderBy sorts the rows, most significant key first. Rows that tie on
	// every key keep the executor's order (a stable sort), so results replay
	// byte-identically.
	OrderBy []OrderKey
	// Limit keeps the first Limit rows after ordering; negative (NoLimit)
	// keeps all.
	Limit int
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Col  AggCol
	Desc bool
}

// NoLimit is the Output.Limit that keeps every row.
const NoLimit = -1
