package main

import (
	"strings"
	"testing"
)

func TestParseRun(t *testing.T) {
	for _, tc := range []struct {
		list    string
		want    []string
		wantErr string
	}{
		{list: "all", want: []string{"all"}},
		{list: "table1,fig6", want: []string{"table1", "fig6"}},
		{list: " fig1 , relatedwork", want: []string{"fig1", "relatedwork"}},
		{list: "tabel1", wantErr: `unknown -run name "tabel1"`},
		{list: "fig1,Fig6", wantErr: `unknown -run name "Fig6"`},
		{list: "fig1,", wantErr: `unknown -run name ""`},
		{list: "", wantErr: `unknown -run name ""`},
	} {
		got, err := parseRun(tc.list)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "baselines") {
				t.Errorf("parseRun(%q) error = %v, want %q listing the valid names", tc.list, err, tc.wantErr)
			}
			continue
		}
		if err != nil || len(got) != len(tc.want) {
			t.Errorf("parseRun(%q) = %v, %v; want %v", tc.list, got, err, tc.want)
			continue
		}
		for _, name := range tc.want {
			if !got[name] {
				t.Errorf("parseRun(%q) = %v, missing %q", tc.list, got, name)
			}
		}
	}
}
