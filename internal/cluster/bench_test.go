package cluster

import "testing"

// BenchmarkNewNode times booting one node of each platform preset under
// each OS: a Linux node is the kernel and its buddy allocators; a McKernel
// node adds the IHK CPU and memory reservation and the LWK boot.
func BenchmarkNewNode(b *testing.B) {
	for _, p := range []struct {
		name     string
		platform *Platform
	}{
		{"ofp", OFP()},
		{"fugaku", Fugaku()},
	} {
		for _, kind := range []OSKind{Linux, McKernel} {
			b.Run(p.name+"/"+kind.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := p.platform.NewNode(kind); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
