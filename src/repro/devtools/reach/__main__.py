from repro.devtools.reach import main

raise SystemExit(main())
