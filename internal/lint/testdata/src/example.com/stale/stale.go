// Package stale seeds directives that no analyzer of the suite reads:
// an ignore naming a dropped analyzer and a dropped directive kind.
// Checked programmatically because each finding lands on the
// directive's own line, which cannot also carry a want comment.
package stale

type machine struct {
	state int //swaplint:state allow=f
}

func f(m *machine) {
	//swaplint:ignore errwrap x
	m.state = 1
}

// Ignores naming an analyzer of the run, or all, are not findings.
func g() {
	//swaplint:ignore clockcheck reason given
	//swaplint:ignore all reason given
}
