// Package opb reads and writes pseudo-Boolean instances in the OPB format
// used by the pseudo-Boolean evaluation series and by solvers such as bsolo,
// PBS and Galena.
//
// Supported syntax (one statement per line, '*' starts a comment):
//
//	min: +1 x1 +2 x2 ;
//	+1 x1 +2 x2 >= 2 ;
//	+3 x1 -2 x3 = 1 ;
//	-1 x2 +1 x4 <= 0 ;
//
// Variables are named x<k> with k ≥ 1, or arbitrary identifiers (a letter
// or '_' followed by letters, digits or '_'); negated literals are written
// ~x<k>. Coefficients may omit the leading '+'.
package opb

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/pb"
)

// Parse reads an OPB instance from r and returns the normalized problem.
// Negative objective coefficients are normalized via x = 1 − ¬x: the cost is
// attached to the complemented polarity by introducing the substitution in
// the objective offset, keeping all pb.Problem costs non-negative.
func Parse(r io.Reader) (*pb.Problem, error) {
	p := &pb.Problem{}
	vars := map[string]pb.Var{}
	getVar := func(name string) pb.Var {
		if v, ok := vars[name]; ok {
			return v
		}
		v := pb.Var(p.NumVars)
		p.NumVars++
		p.Cost = append(p.Cost, 0)
		p.Names = append(p.Names, name)
		vars[name] = v
		return v
	}

	// negCost[v] accumulates cost placed on x_v = 0 from negative objective
	// coefficients; folded into Cost/CostOffset at the end.
	var negCost map[pb.Var]int64
	sawObjective := false
	products := newProductTable(p)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	// Statements may span lines until ';'. Accumulate tokens.
	var pending []string
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		toks := pending
		pending = pending[:0] // toks is dead once flush returns
		isObj := false
		if strings.EqualFold(toks[0], "min:") {
			isObj = true
			toks = toks[1:]
		} else if strings.EqualFold(toks[0], "max:") {
			return fmt.Errorf("opb: line %d: max: objectives are not supported (negate to min:)", lineNo)
		}
		// Split at relational operator for constraints.
		relIdx := -1
		var cmp pb.Cmp
		for i, t := range toks {
			switch t {
			case ">=":
				relIdx, cmp = i, pb.GE
			case "<=":
				relIdx, cmp = i, pb.LE
			case "=":
				relIdx, cmp = i, pb.EQ
			}
			if relIdx >= 0 {
				break
			}
		}
		if isObj && relIdx >= 0 {
			return fmt.Errorf("opb: line %d: relational operator in objective", lineNo)
		}
		if !isObj && relIdx < 0 {
			return fmt.Errorf("opb: line %d: constraint without relational operator", lineNo)
		}

		lhsToks := toks
		var rhs int64
		if !isObj {
			lhsToks = toks[:relIdx]
			rhsToks := toks[relIdx+1:]
			if len(rhsToks) != 1 {
				return fmt.Errorf("opb: line %d: expected single right-hand side, got %v", lineNo, rhsToks)
			}
			var err error
			rhs, err = strconv.ParseInt(rhsToks[0], 10, 64)
			if err != nil {
				return fmt.Errorf("opb: line %d: bad right-hand side %q", lineNo, rhsToks[0])
			}
		}

		terms, err := parseTerms(lhsToks, getVar, lineNo, products)
		if err != nil {
			return err
		}
		if isObj {
			if sawObjective {
				return fmt.Errorf("opb: line %d: duplicate objective", lineNo)
			}
			sawObjective = true
			for _, t := range terms {
				coef := t.Coef
				v := t.Lit.Var()
				var err error
				if t.Lit.IsNeg() {
					// c·¬x = c − c·x: offset c, coefficient −c on x.
					if p.CostOffset, err = pb.CheckedAdd(p.CostOffset, coef); err != nil {
						return fmt.Errorf("opb: line %d: objective offset: %w", lineNo, err)
					}
					if coef, err = pb.CheckedNeg(coef); err != nil {
						return fmt.Errorf("opb: line %d: objective coefficient: %w", lineNo, err)
					}
				}
				if coef >= 0 {
					if p.Cost[v], err = pb.CheckedAdd(p.Cost[v], coef); err != nil {
						return fmt.Errorf("opb: line %d: objective coefficient on %s: %w",
							lineNo, name(p, v), err)
					}
				} else {
					// coef·x = coef + (−coef)·¬x: move the constant into the
					// offset and pay −coef when x = 0.
					if p.CostOffset, err = pb.CheckedAdd(p.CostOffset, coef); err != nil {
						return fmt.Errorf("opb: line %d: objective offset: %w", lineNo, err)
					}
					if negCost == nil {
						negCost = map[pb.Var]int64{}
					}
					nc, err := pb.CheckedNeg(coef)
					if err != nil {
						return fmt.Errorf("opb: line %d: objective coefficient: %w", lineNo, err)
					}
					if negCost[v], err = pb.CheckedAdd(negCost[v], nc); err != nil {
						return fmt.Errorf("opb: line %d: objective coefficient on %s: %w",
							lineNo, name(p, v), err)
					}
				}
			}
			return nil
		}
		return p.AddConstraint(terms, cmp, rhs)
	}

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '*'); i >= 0 {
			line = line[:i]
		}
		// Tokenize; ';' terminates a statement.
		for _, field := range strings.Fields(line) {
			for {
				semi := strings.IndexByte(field, ';')
				if semi < 0 {
					pending = append(pending, field)
					break
				}
				if semi > 0 {
					pending = append(pending, field[:semi])
				}
				if err := flush(); err != nil {
					return nil, err
				}
				field = field[semi+1:]
				if field == "" {
					break
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if err := products.flushDefinitions(); err != nil {
		return nil, err
	}

	// Fold negative objective coefficients: −c·x = −c + c·¬x, i.e. cost c on
	// x=0. Net cost on v is Cost[v] − negCost[v]; whichever polarity is
	// cheaper absorbs the offset.
	for v, nc := range negCost {
		net, err := pb.CheckedSub(p.Cost[v], nc)
		if err != nil {
			return nil, fmt.Errorf("opb: net objective coefficient on %s: %w", name(p, v), err)
		}
		if net >= 0 {
			// Cost[v]·x + nc·(1−x) = nc + net·x.
			p.Cost[v] = net
			if p.CostOffset, err = pb.CheckedAdd(p.CostOffset, nc); err != nil {
				return nil, fmt.Errorf("opb: objective offset: %w", err)
			}
		} else {
			// Cheaper to pay on x=1 side: offset Cost[v], remaining −net on x=0.
			if p.CostOffset, err = pb.CheckedAdd(p.CostOffset, p.Cost[v]); err != nil {
				return nil, fmt.Errorf("opb: objective offset: %w", err)
			}
			p.Cost[v] = 0
			// Penalize x_v = 0 by −net: add constraint-free cost via a fresh
			// complement variable y ≡ ¬x with cost −net.
			y := pb.Var(p.NumVars)
			p.NumVars++
			p.Cost = append(p.Cost, -net)
			p.Names = append(p.Names, "_n"+name(p, v))
			// y + x >= 1 and ¬y + ¬x >= 1 enforce y = ¬x.
			if err := p.AddClause(pb.PosLit(y), pb.PosLit(v)); err != nil {
				return nil, err
			}
			if err := p.AddClause(pb.NegLit(y), pb.NegLit(v)); err != nil {
				return nil, err
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func name(p *pb.Problem, v pb.Var) string {
	if int(v) < len(p.Names) && p.Names[v] != "" {
		return p.Names[v]
	}
	return fmt.Sprintf("x%d", int(v)+1)
}

// ValidName reports whether s is an acceptable variable identifier: a
// letter or underscore followed by letters, digits or underscores. This is
// the same class the writers emit (x<k>, user names, _n/_p synthetics), so
// everything the package writes re-parses, and nothing that parses can
// collide with the "-" false-literal marker of the value-line format.
func ValidName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(s) > 0
}

func parseTerms(toks []string, getVar func(string) pb.Var, lineNo int, products *productTable) ([]pb.Term, error) {
	var terms []pb.Term
	var lits []pb.Lit // reused per term: products.literal copies what it keeps
	i := 0
	for i < len(toks) {
		coefTok := toks[i]
		coef, err := strconv.ParseInt(coefTok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("opb: line %d: expected coefficient, got %q", lineNo, coefTok)
		}
		i++
		if i >= len(toks) {
			return nil, fmt.Errorf("opb: line %d: coefficient %q without literal", lineNo, coefTok)
		}
		// One or more literal tokens follow (more than one = a nonlinear
		// product term, per the OPB specification).
		lits = lits[:0]
		for i < len(toks) {
			if isCoef(toks[i]) {
				break // next coefficient
			}
			litTok := toks[i]
			i++
			neg := false
			if strings.HasPrefix(litTok, "~") {
				neg = true
				litTok = litTok[1:]
			}
			if litTok == "" {
				return nil, fmt.Errorf("opb: line %d: empty literal", lineNo)
			}
			if !ValidName(litTok) {
				// Identifier syntax only: a stray operator token ("-", "=")
				// must be a parse error, not a variable. (Differential-fuzzer
				// finding: a variable literally named "-" survives solving
				// but corrupts the value-line round trip, where "-" is the
				// false-literal prefix.)
				return nil, fmt.Errorf("opb: line %d: invalid variable name %q", lineNo, litTok)
			}
			lits = append(lits, pb.MkLit(getVar(litTok), neg))
		}
		if len(lits) == 0 {
			return nil, fmt.Errorf("opb: line %d: coefficient %q without literal", lineNo, coefTok)
		}
		lit, err := products.literal(lits)
		if err != nil {
			return nil, fmt.Errorf("opb: line %d: %w", lineNo, err)
		}
		terms = append(terms, pb.Term{Coef: coef, Lit: lit})
	}
	return terms, nil
}

// isCoef reports whether tok parses as a coefficient. Only a token starting
// with a sign or a digit can, so variable names skip strconv, whose failure
// allocates an error per literal.
func isCoef(tok string) bool {
	if tok == "" || tok[0] != '+' && tok[0] != '-' && (tok[0] < '0' || tok[0] > '9') {
		return false
	}
	_, err := strconv.ParseInt(tok, 10, 64)
	return err == nil
}

// ParseString parses an OPB instance from a string.
func ParseString(s string) (*pb.Problem, error) {
	return Parse(strings.NewReader(s))
}

// Write renders p in OPB syntax. Variables are written using p.Names when
// available and x<k> (1-based) otherwise. The objective offset, if nonzero,
// is recorded in a comment (OPB has no offset syntax).
func Write(w io.Writer, p *pb.Problem) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "* #variable= %d #constraint= %d\n", p.NumVars, len(p.Constraints))
	if p.CostOffset != 0 {
		fmt.Fprintf(bw, "* objective offset = %d\n", p.CostOffset)
	}
	if p.HasObjective() {
		bw.WriteString("min:")
		for v := 0; v < p.NumVars; v++ {
			if p.Cost[v] != 0 {
				fmt.Fprintf(bw, " +%d %s", p.Cost[v], name(p, pb.Var(v)))
			}
		}
		bw.WriteString(" ;\n")
	}
	for _, c := range p.Constraints {
		// Deterministic term order: as stored (already sorted by Normalize).
		for i, t := range c.Terms {
			if i > 0 {
				bw.WriteByte(' ')
			}
			lit := name(p, t.Lit.Var())
			if t.Lit.IsNeg() {
				lit = "~" + lit
			}
			fmt.Fprintf(bw, "+%d %s", t.Coef, lit)
		}
		fmt.Fprintf(bw, " >= %d ;\n", c.Degree)
	}
	return bw.Flush()
}

// WriteString renders p in OPB syntax and returns it as a string.
func WriteString(p *pb.Problem) string {
	var sb strings.Builder
	_ = Write(&sb, p)
	return sb.String()
}

// SortedVarNames returns the distinct variable names of p in deterministic
// order; useful for tests and diagnostics.
func SortedVarNames(p *pb.Problem) []string {
	names := make([]string, p.NumVars)
	for v := 0; v < p.NumVars; v++ {
		names[v] = name(p, pb.Var(v))
	}
	sort.Strings(names)
	return names
}
