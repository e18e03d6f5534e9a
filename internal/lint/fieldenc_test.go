package lint

import "testing"

func TestFieldEnc(t *testing.T) {
	const p = "fixture/fieldenc"
	cfg := fixtureConfig()
	cfg.Fields = []FieldRule{
		{Type: p + ".Port", Field: "occ", Writers: []string{p + ".Router.occDelta"}},
		{Type: p + ".Port", Field: "credits", Writers: []string{p + ".newRouter"}},
		{Type: p + ".Router", Field: "heads", Writers: []string{p + ".Router.setHead"}},
	}
	runFixture(t, FieldEnc, cfg, "fieldenc")
}
