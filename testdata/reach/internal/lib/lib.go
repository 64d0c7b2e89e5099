// Package lib plants one of each case the reach guards classify.
package lib

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"text/template"
)

// Unread is written by a literal, an assignment and ++, and never read.
type Unread struct{ Dead int }

// ViaJSON, ViaFmt and ViaLog are read only by the packages that print
// them.
type (
	ViaJSON struct{ Field int }
	ViaFmt  struct{ Field int }
	ViaLog  struct{ Field int }
)

// Tagged is never selected, but its field carries a json tag.
type Tagged struct {
	Field int `json:"field"`
}

// Key is a map key; Cmp is compared with ==.
type (
	Key struct{ Field int }
	Cmp struct{ Field int }
)

// View is template data.
type View struct{ Field int }

// Outer reads Inner's field by promotion, so the embedded Inner is read.
type (
	Inner struct{ Field int }
	Outer struct{ Inner }
)

// Aliased is aliased by the root package.
type Aliased struct{ Field int }

// Config's options: Defaulted only ever takes a constant in this package,
// FromProgram is set by a program, Computed is set to a non-constant and
// Pointed through a pointer.
type Config struct {
	Defaulted   int
	FromProgram int
	Computed    int
	Pointed     int
}

// FacadeConfig is aliased by the root package; its Knob only ever takes a
// constant here.
type FacadeConfig struct{ Knob int }

var page = template.Must(template.New("page").Parse("{{.Field}}\n"))

// Main exercises every case.
func Main(w io.Writer) error {
	u := Unread{Dead: 1}
	u.Dead = 2
	u.Dead++
	if _, err := json.Marshal(ViaJSON{Field: 1}); err != nil {
		return err
	}
	fmt.Fprintf(w, "%v\n", ViaFmt{Field: 1})
	log.Print(ViaLog{Field: 1})
	m := map[Key]int{{Field: 1}: 1}
	if (Cmp{Field: 1}) == (Cmp{Field: 2}) || len(m) == 0 {
		return nil
	}
	var t Tagged
	t.Field = 1
	o := Outer{Inner{Field: 1}}
	fmt.Fprintln(w, o.Field)
	_ = Aliased{Field: 1}
	_ = FacadeConfig{Knob: 1}
	if err := page.Execute(w, View{Field: 1}); err != nil {
		return err
	}
	return Serve(w, Config{Defaulted: 4})
}

// Serve reads every option.
func Serve(w io.Writer, c Config) error {
	c.Computed = c.FromProgram * 2
	bump(&c.Pointed)
	_, err := fmt.Fprintln(w, c.Defaulted+c.FromProgram+c.Computed+c.Pointed)
	return err
}

func bump(p *int) { *p++ }

// dead is reached from no program.
func dead() {}
