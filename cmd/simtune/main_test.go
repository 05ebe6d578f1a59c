package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseNodes(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		ids, urls  []string
		wantErr    string
	}{
		{name: "bare urls", spec: "http://sim-0:8070,http://sim-1:8070",
			ids: []string{"http://sim-0:8070", "http://sim-1:8070"}, urls: []string{"http://sim-0:8070", "http://sim-1:8070"}},
		{name: "id=url beside bare", spec: "a=http://10.0.0.5:8070, http://sim-1:8070",
			ids: []string{"a", "http://sim-1:8070"}, urls: []string{"http://10.0.0.5:8070", "http://sim-1:8070"}},
		{name: "empty elements skipped", spec: ",a=http://x:1,, ,b=http://y:2,",
			ids: []string{"a", "b"}, urls: []string{"http://x:1", "http://y:2"}},
		{name: "equals inside a url is not a separator", spec: "http://x:1/?k=v,a=http://y:2/?k=v",
			ids: []string{"http://x:1/?k=v", "a"}, urls: []string{"http://x:1/?k=v", "http://y:2/?k=v"}},
		{name: "duplicate id", spec: "a=http://x:1,a=http://y:2", wantErr: `"a" twice`},
		{name: "duplicate bare url", spec: "http://x:1,http://x:1", wantErr: "twice"},
		{name: "missing url", spec: "a=", wantErr: "want id=url"},
		{name: "missing id", spec: "=http://x:1", wantErr: "want id=url"},
		{name: "nothing", spec: " , ", wantErr: "-nodes is required"},
	} {
		ids, urls, err := parseNodes(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(ids, tc.ids) || !reflect.DeepEqual(urls, tc.urls) {
			t.Errorf("%s: parseNodes(%q) = %v, %v, %v; want %v, %v", tc.name, tc.spec, ids, urls, err, tc.ids, tc.urls)
		}
	}
}
