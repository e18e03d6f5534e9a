// Package spec is the argument rule the traffic (sim) and fault-plan
// (router) grammars share: comma-separated numbers, each parsed at its
// field's width and printed in its shortest exact form.
package spec

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// Args splits s on ',' into at least least and at most len(dst)
// space-trimmed fields and parses each into the pointer at its position
// in dst: a *float64, a *uint64, or a signed integer whose range the
// field must fit. It returns the number of fields s held.
func Args(s string, least int, dst []any) (int, error) {
	f := strings.Split(s, ",")
	if len(f) < least || len(f) > len(dst) {
		return 0, fmt.Errorf("want %d to %d comma-separated values, got %d", least, len(dst), len(f))
	}
	for i, s := range f {
		v, s := reflect.ValueOf(dst[i]).Elem(), strings.TrimSpace(s)
		var x any
		var err error
		switch v.Kind() {
		case reflect.Float64:
			x, err = strconv.ParseFloat(s, 64)
		case reflect.Uint64:
			x, err = strconv.ParseUint(s, 10, 64)
		default:
			x, err = strconv.ParseInt(s, 10, v.Type().Bits())
		}
		if err != nil {
			return 0, err
		}
		v.Set(reflect.ValueOf(x).Convert(v.Type()))
	}
	return len(f), nil
}

// Format prints the value p points at; a float prints in Go's shortest
// form that parses back to the same bits ("0.125", "1e-05", "NaN").
func Format(p any) string { return fmt.Sprint(reflect.ValueOf(p).Elem()) }

// FormatArgs prints fields as Args reads them; the fields past the
// first least print only up to the last nonzero one.
func FormatArgs(fields []any, least int) string {
	for len(fields) > least && Format(fields[len(fields)-1]) == "0" {
		fields = fields[:len(fields)-1]
	}
	s := make([]string, len(fields))
	for i, p := range fields {
		s[i] = Format(p)
	}
	return strings.Join(s, ",")
}
