package main

import (
	"context"
	"crypto/sha256"
	"fmt"

	"repro/internal/platform"
	"repro/internal/tvca"
)

func main() {
	cfg := tvca.DefaultConfig()
	cfg.Frames = 8
	app, err := tvca.New(cfg)
	if err != nil {
		panic(err)
	}
	for _, pc := range []platform.Config{platform.DET(), platform.RAND()} {
		p, err := platform.New(pc)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s first32:\n", pc.Name)
		for i := 0; i < 32; i++ {
			r, err := p.ExecuteRun(context.Background(), app, i, platform.DeriveRunSeed(42, i))
			if err != nil {
				panic(err)
			}
			fmt.Printf("%d, ", r.Cycles)
			if i%8 == 7 {
				fmt.Println()
			}
		}
		// 600-run series hash (continues the same platform instance).
		h := sha256.New()
		p2, _ := platform.New(pc)
		for i := 0; i < 600; i++ {
			r, err := p2.ExecuteRun(context.Background(), app, i, platform.DeriveRunSeed(42, i))
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(h, "%d/%d/%s;", r.Cycles, r.Instructions, r.Path)
		}
		fmt.Printf("%s sha600 = %x\n", pc.Name, h.Sum(nil))
	}
}
