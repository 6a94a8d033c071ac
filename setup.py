"""Builds the optional compiled digit-extraction kernel.

The package is fully functional without the extension: spacefarm.agents.bbp
falls back to the pure-Python kernel when the compiled module is absent. The
extension is optional, so an install on a host without a C compiler goes on
and yields the pure kernel only.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "spacefarm.agents._bbp",
            ["src/spacefarm/agents/_bbp.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
