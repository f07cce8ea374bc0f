//! Custom modules: hand-written code behind the standard module interface —
//! "implemented with manually written code ... created by users with
//! programming skills or provided by LINGUA MANGA as a default built-in
//! module" (§3.1).

use crate::context::ExecContext;
use crate::data::Data;
use crate::error::CoreError;
use crate::modules::{Module, ModuleKind};
use std::sync::Arc;

type CustomFn = dyn FnMut(Data, &mut ExecContext) -> Result<Data, CoreError> + Send;
type SharedFn = dyn Fn(Data, &mut ExecContext) -> Result<Data, CoreError> + Send + Sync;

/// The module body: either an arbitrary stateful closure (not replicable) or
/// a shared stateless function (replicable via [`Module::fresh_instance`]).
enum Body {
    Stateful(Box<CustomFn>),
    Stateless(Arc<SharedFn>),
}

/// A module wrapping an arbitrary Rust closure.
pub struct CustomModule {
    name: String,
    body: Body,
}

impl CustomModule {
    /// Wrap a (possibly stateful) `FnMut` closure. The resulting module
    /// cannot be replicated for concurrent serving; prefer
    /// [`CustomModule::stateless`] when the closure carries no mutable state.
    pub fn new<F>(name: impl Into<String>, f: F) -> CustomModule
    where
        F: FnMut(Data, &mut ExecContext) -> Result<Data, CoreError> + Send + 'static,
    {
        CustomModule { name: name.into(), body: Body::Stateful(Box::new(f)) }
    }

    /// Wrap a stateless `Fn` closure. Such modules support
    /// [`Module::fresh_instance`]: every instance shares the (immutable)
    /// closure behind an `Arc`, so a compiled pipeline can be instantiated
    /// once per serving worker.
    pub fn stateless<F>(name: impl Into<String>, f: F) -> CustomModule
    where
        F: Fn(Data, &mut ExecContext) -> Result<Data, CoreError> + Send + Sync + 'static,
    {
        CustomModule { name: name.into(), body: Body::Stateless(Arc::new(f)) }
    }
}

impl Module for CustomModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Custom
    }

    fn invoke(&mut self, input: Data, ctx: &mut ExecContext) -> Result<Data, CoreError> {
        match &mut self.body {
            Body::Stateful(f) => f(input, ctx),
            Body::Stateless(f) => f(input, ctx),
        }
    }

    fn describe(&self) -> String {
        format!("custom module `{}`", self.name)
    }

    fn fresh_instance(&self) -> Option<Box<dyn Module>> {
        match &self.body {
            Body::Stateful(_) => None,
            Body::Stateless(f) => Some(Box::new(CustomModule {
                name: self.name.clone(),
                body: Body::Stateless(Arc::clone(f)),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;
    use std::sync::Arc;

    fn ctx() -> ExecContext {
        let world = WorldSpec::generate(1);
        ExecContext::new(Arc::new(SimLlm::with_seed(&world, 1)))
    }

    #[test]
    fn custom_module_runs_closures_with_state() {
        let mut ctx = ctx();
        let mut counter = 0u32;
        let mut module = CustomModule::new("counter", move |input, _| {
            counter += 1;
            Ok(Data::Str(format!("{}#{counter}", input.render())))
        });
        assert_eq!(module.kind(), ModuleKind::Custom);
        assert_eq!(module.describe(), "custom module `counter`");
        assert_eq!(
            module.invoke(Data::Str("a".into()), &mut ctx).unwrap(),
            Data::Str("a#1".into())
        );
        assert_eq!(
            module.invoke(Data::Str("b".into()), &mut ctx).unwrap(),
            Data::Str("b#2".into())
        );
    }

    #[test]
    fn stateful_modules_cannot_be_replicated() {
        let module = CustomModule::new("stateful", |input, _| Ok(input));
        assert!(module.fresh_instance().is_none());
    }

    #[test]
    fn stateless_modules_replicate() {
        let mut ctx = ctx();
        let module = CustomModule::stateless("upper", |input, _| {
            Ok(Data::Str(input.render().to_uppercase()))
        });
        let mut copy = module.fresh_instance().expect("stateless replicates");
        assert_eq!(copy.name(), "upper");
        assert_eq!(copy.describe(), "custom module `upper`");
        assert_eq!(copy.invoke(Data::Str("ab".into()), &mut ctx).unwrap(), Data::Str("AB".into()));
        // The copy replicates again, too.
        assert!(copy.fresh_instance().is_some());
    }
}
