package sqlparse

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// Stmt is a parsed SELECT statement: the SPJ core as a plan.Query the
// optimizer plans, plus the presentation clauses (select list, ORDER BY,
// LIMIT) as a plan.Output the executor applies to the plan's columns. Both
// name columns by position in the FROM list (index into Query.Tables) and
// column index. A nil Cols means SELECT *: every column in FROM order.
type Stmt struct {
	Query *plan.Query
	plan.Output
}

// Parse parses a SELECT statement against the catalog. The supported
// grammar is the engine's SPJ class plus presentation clauses:
//
//	SELECT {* | col [, col]...}
//	FROM table [, table]...
//	[WHERE cond [AND cond]...]
//	[ORDER BY col [ASC|DESC] [, col [ASC|DESC]]...]
//	[LIMIT n]
//
// where cond is `col <op> int`, `col BETWEEN int AND int`, or the equi-join
// `a.col = b.col`, and col is `name` or `table.name` (a bare name must be
// unambiguous across the FROM tables). Keywords are case-insensitive.
func Parse(cat *catalog.Catalog, sql string) (*Stmt, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{cat: cat, toks: toks}
	st, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.atEnd() {
		return nil, fmt.Errorf("sqlparse: unexpected %q after statement", p.peek().text)
	}
	return st, nil
}

// token kinds.
const (
	tokIdent = iota
	tokNumber
	tokSymbol // punctuation and comparison operators
	tokEOF
)

type token struct {
	kind int
	text string // keywords and idents kept verbatim; upper() for matching
}

// lex cuts sql into tokens. Every token's text is a substring of sql, so a
// token costs no allocation of its own; the slice starts at one token per two
// bytes, which typical statements (about three bytes a token) stay under.
func lex(sql string) ([]token, error) {
	toks := make([]token, 0, len(sql)/2+2)
	i := 0
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isIdentStart(c):
			j := i + 1
			for j < len(sql) && isIdentPart(sql[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, sql[i:j]})
			i = j
		case c >= '0' && c <= '9':
			j := i + 1
			for j < len(sql) && sql[j] >= '0' && sql[j] <= '9' {
				j++
			}
			toks = append(toks, token{tokNumber, sql[i:j]})
			i = j
		case c == '<':
			if i+1 < len(sql) && (sql[i+1] == '=' || sql[i+1] == '>') {
				toks = append(toks, token{tokSymbol, sql[i : i+2]})
				i += 2
			} else {
				toks = append(toks, token{tokSymbol, sql[i : i+1]})
				i++
			}
		case c == '>':
			if i+1 < len(sql) && sql[i+1] == '=' {
				toks = append(toks, token{tokSymbol, sql[i : i+2]})
				i += 2
			} else {
				toks = append(toks, token{tokSymbol, sql[i : i+1]})
				i++
			}
		case c == '!':
			if i+1 < len(sql) && sql[i+1] == '=' {
				toks = append(toks, token{tokSymbol, sql[i : i+2]})
				i += 2
			} else {
				return nil, fmt.Errorf("sqlparse: stray '!' at offset %d", i)
			}
		case c == '=' || c == ',' || c == '.' || c == '*' || c == '-' || c == ';' || c == '(' || c == ')':
			toks = append(toks, token{tokSymbol, sql[i : i+1]})
			i++
		default:
			return nil, fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, ""})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

// rawRef is an unresolved column reference.
type rawRef struct {
	table string // empty = unqualified
	col   string
}

type parser struct {
	cat  *catalog.Catalog
	toks []token
	pos  int

	// The FROM list, read before references resolve: the table at position
	// pos is named by token from+2*pos (the list is `table [, table]...`)
	// and has catalog ID tableIDs[pos].
	from     int
	tableIDs []int
}

// tableName returns the FROM list's name for the table at position pos, as
// the statement spelled it.
func (p *parser) tableName(pos int) string { return p.toks[p.from+2*pos].text }

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) atEnd() bool {
	// A trailing semicolon closes the statement.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.pos++
	}
	return p.peek().kind == tokEOF
}

// keyword consumes the next token if it is the given keyword
// (case-insensitive) and reports whether it did.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return fmt.Errorf("sqlparse: expected %s, got %q", strings.ToUpper(kw), p.peek().text)
	}
	return nil
}

func (p *parser) symbol(s string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == s {
		p.pos++
		return true
	}
	return false
}

// parseSelect parses the statement into lists each allocated once, at its
// final length: the select list, FROM list, WHERE conjuncts and ORDER BY
// keys are read into stack buffers first (they reach the heap only past the
// buffers' sizes) and copied out when their counts are known.
func (p *parser) parseSelect() (*Stmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	star := p.symbol("*")
	var rawBuf [16]rawRef
	rawCols := rawBuf[:0]
	if !star {
		for {
			r, err := p.parseRawRef()
			if err != nil {
				return nil, err
			}
			rawCols = append(rawCols, r)
			if !p.symbol(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	p.from = p.pos
	var idBuf [16]int
	ids := idBuf[:0]
	for {
		t := p.next()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("sqlparse: expected table name, got %q", t.text)
		}
		id, ok := p.cat.ByName(t.text)
		if !ok {
			return nil, fmt.Errorf("sqlparse: unknown table %q", t.text)
		}
		ids = append(ids, id)
		if !p.symbol(",") {
			break
		}
	}
	p.tableIDs = slices.Clone(ids)
	st := &Stmt{Query: plan.NewQuery(p.tableIDs...), Output: plan.Output{Limit: plan.NoLimit}}
	if len(rawCols) > 0 {
		st.Cols = make([]plan.AggCol, len(rawCols))
		for i, r := range rawCols {
			ref, err := p.resolve(r)
			if err != nil {
				return nil, err
			}
			st.Cols[i] = ref
		}
	}
	if p.keyword("where") {
		var condBuf [32]cond
		conds := condBuf[:0]
		for {
			c, err := p.parseCond()
			if err != nil {
				return nil, err
			}
			conds = append(conds, c)
			if !p.keyword("and") {
				break
			}
		}
		setConds(st.Query, conds)
	}
	if p.keyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		var keyBuf [8]plan.OrderKey
		keys := keyBuf[:0]
		for {
			r, err := p.parseRawRef()
			if err != nil {
				return nil, err
			}
			ref, err := p.resolve(r)
			if err != nil {
				return nil, err
			}
			key := plan.OrderKey{Col: ref}
			if p.keyword("desc") {
				key.Desc = true
			} else {
				p.keyword("asc")
			}
			keys = append(keys, key)
			if !p.symbol(",") {
				break
			}
		}
		st.OrderBy = slices.Clone(keys)
	}
	if p.keyword("limit") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("sqlparse: negative LIMIT %d", n)
		}
		st.Limit = int(n)
	}
	return st, nil
}

// cond is one WHERE conjunct: a filter on the table at position pos, or,
// when pos is negative, the equi-join join.
type cond struct {
	pos  int
	pred expr.Pred
	join expr.JoinCond
}

// setConds stores the conjuncts in q: each table's filters in one subslice
// of a single array, in statement order, and the joins in one slice of their
// own. A table without filters keeps a nil list, as AddFilter would leave it.
func setConds(q *plan.Query, conds []cond) {
	joins := 0
	for _, c := range conds {
		if c.pos < 0 {
			joins++
		}
	}
	if joins > 0 {
		q.Joins = make([]expr.JoinCond, 0, joins)
		for _, c := range conds {
			if c.pos < 0 {
				q.Joins = append(q.Joins, c.join)
			}
		}
	}
	if joins == len(conds) {
		return
	}
	preds := make([]expr.Pred, 0, len(conds)-joins)
	for pos := range q.Filters {
		start := len(preds)
		for _, c := range conds {
			if c.pos == pos {
				preds = append(preds, c.pred)
			}
		}
		if len(preds) > start {
			// The full slice expression caps each list, so a later AddFilter
			// copies it rather than writing over the next table's.
			q.Filters[pos] = preds[start:len(preds):len(preds)]
		}
	}
}

// parseRawRef reads `ident` or `ident.ident`.
func (p *parser) parseRawRef() (rawRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return rawRef{}, fmt.Errorf("sqlparse: expected column reference, got %q", t.text)
	}
	if p.symbol(".") {
		c := p.next()
		if c.kind != tokIdent {
			return rawRef{}, fmt.Errorf("sqlparse: expected column after %q., got %q", t.text, c.text)
		}
		return rawRef{table: t.text, col: c.text}, nil
	}
	return rawRef{col: t.text}, nil
}

// resolve binds a raw reference against the FROM list.
func (p *parser) resolve(r rawRef) (plan.AggCol, error) {
	if r.table != "" {
		for pos := range p.tableIDs {
			if name := p.tableName(pos); strings.EqualFold(name, r.table) {
				col := p.cat.Table(p.tableIDs[pos]).ColIndex(r.col)
				if col < 0 {
					return plan.AggCol{}, fmt.Errorf("sqlparse: table %q has no column %q", name, r.col)
				}
				return plan.AggCol{Table: pos, Col: col}, nil
			}
		}
		return plan.AggCol{}, fmt.Errorf("sqlparse: table %q is not in the FROM list", r.table)
	}
	found := plan.AggCol{Table: -1}
	for pos, id := range p.tableIDs {
		if col := p.cat.Table(id).ColIndex(r.col); col >= 0 {
			if found.Table >= 0 {
				return plan.AggCol{}, fmt.Errorf("sqlparse: column %q is ambiguous (in %q and %q)",
					r.col, p.tableName(found.Table), p.tableName(pos))
			}
			found = plan.AggCol{Table: pos, Col: col}
		}
	}
	if found.Table < 0 {
		return plan.AggCol{}, fmt.Errorf("sqlparse: no FROM table has a column %q", r.col)
	}
	return found, nil
}

// parseInt reads an optionally negated integer literal. The digits are
// parsed unsigned, so the smallest int64, which has no positive counterpart,
// negates exactly and no signed text is built; only an error spells it out.
func (p *parser) parseInt() (int64, error) {
	neg := p.symbol("-")
	t := p.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("sqlparse: expected integer, got %q", t.text)
	}
	u, err := strconv.ParseUint(t.text, 10, 64)
	switch {
	case err == nil && u <= math.MaxInt64:
		if neg {
			return -int64(u), nil
		}
		return int64(u), nil
	case err == nil && neg && u == 1<<63:
		return math.MinInt64, nil
	}
	text := t.text
	if neg {
		text = "-" + text
	}
	_, err = strconv.ParseInt(text, 10, 64)
	return 0, fmt.Errorf("sqlparse: bad integer %q: %v", text, err)
}

// parseCond parses one WHERE conjunct into a filter or a join condition.
func (p *parser) parseCond() (cond, error) {
	left, err := p.parseRawRef()
	if err != nil {
		return cond{}, err
	}
	lref, err := p.resolve(left)
	if err != nil {
		return cond{}, err
	}
	if p.keyword("between") {
		lo, err := p.parseInt()
		if err != nil {
			return cond{}, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return cond{}, err
		}
		hi, err := p.parseInt()
		if err != nil {
			return cond{}, err
		}
		return cond{pos: lref.Table, pred: expr.Pred{Col: lref.Col, Op: expr.BETWEEN, Lo: lo, Hi: hi}}, nil
	}
	t := p.next()
	if t.kind != tokSymbol {
		return cond{}, fmt.Errorf("sqlparse: expected comparison operator, got %q", t.text)
	}
	var op expr.Op
	switch t.text {
	case "=":
		op = expr.EQ
	case "!=", "<>":
		op = expr.NE
	case "<":
		op = expr.LT
	case "<=":
		op = expr.LE
	case ">":
		op = expr.GT
	case ">=":
		op = expr.GE
	default:
		return cond{}, fmt.Errorf("sqlparse: unknown operator %q", t.text)
	}
	// An equality whose right side is a column reference is an equi-join.
	if op == expr.EQ && p.peek().kind == tokIdent {
		right, err := p.parseRawRef()
		if err != nil {
			return cond{}, err
		}
		rref, err := p.resolve(right)
		if err != nil {
			return cond{}, err
		}
		if rref.Table == lref.Table {
			return cond{}, fmt.Errorf("sqlparse: join condition references table %q on both sides",
				p.tableName(lref.Table))
		}
		return cond{pos: -1, join: expr.JoinCond{
			LeftTable: lref.Table, LeftCol: lref.Col,
			RightTable: rref.Table, RightCol: rref.Col,
		}}, nil
	}
	v, err := p.parseInt()
	if err != nil {
		return cond{}, err
	}
	return cond{pos: lref.Table, pred: expr.Pred{Col: lref.Col, Op: op, Lo: v}}, nil
}
